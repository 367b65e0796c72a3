//! The page bound and the admission estimate of the packed page layout —
//! one dense slab and one sparse log per owner — over random geometries:
//! layer counts, KV heads, head widths, trie block sizes and page sizes
//! (pages narrower than one f32 row included), for exact-f32, Oaken and
//! FP16 pools, driven by chunked appends, prefix adoption and
//! suspend/resume.
//!
//! * `pages_possibly_needed_n(seq, n)` is at least the pages the next `n`
//!   appends open;
//! * `pages_for_tokens(t)` is at least the pages a lone unshared sequence
//!   of `t` tokens holds, plus one page per class per trie block when the
//!   prompt is block-planned;
//! * on both benchmark geometries a 1,024-token prompt fills at least
//!   80 % of the bytes of the pages it holds.

use oaken_baselines::Fp16Reference;
use oaken_core::{KvKind, KvQuantizer, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken_model::{ModelConfig, PagedKvPool, SeqId};
use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;

/// A KV-like row: uniform in `[-3, 3)`, plus — when `spiky` — outer and
/// inner outliers on a fixed channel pattern, the distribution the Oaken
/// thresholds are profiled on. Calm rows sit well below its outlier rate.
fn kv_row(d: usize, seed: u64, spiky: bool) -> Vec<f32> {
    (0..d)
        .map(|i| {
            let u = ((i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(seed.wrapping_mul(1_000_003))
                >> 33) as f32
                / (1u64 << 31) as f32;
            let base = (u - 0.5) * 6.0;
            match (spiky, i % 23) {
                (true, 0) => base * 11.0,
                (true, 1) => base * 0.015,
                _ => base,
            }
        })
        .collect()
}

#[derive(Debug, Clone, Copy)]
enum Method {
    Exact,
    Oaken,
    Fp16,
}

fn quantizer(method: Method, layers: usize) -> Option<Arc<dyn KvQuantizer>> {
    match method {
        Method::Exact => None,
        Method::Fp16 => Some(Arc::new(Fp16Reference::new())),
        Method::Oaken => {
            let config = OakenConfig::default();
            let mut p = OfflineProfiler::new(config.clone(), layers);
            for s in 0..24 {
                for layer in 0..layers {
                    for kind in KvKind::ALL {
                        p.observe(layer, kind, &kv_row(128, s * 5 + layer as u64, true));
                    }
                }
            }
            Some(Arc::new(OakenQuantizer::new(
                config,
                p.try_finish().unwrap(),
            )))
        }
    }
}

fn geometry(layers: usize, kv_heads: usize, head_dim: usize) -> ModelConfig {
    let mut cfg = ModelConfig::llama2_7b().proxy(layers, kv_heads * head_dim);
    cfg.num_heads = kv_heads;
    cfg.num_kv_heads = kv_heads;
    cfg
}

/// Pages from an eighth of a row's channel count upward: an exact pool's
/// f32 row (`4 · kv_dim` bytes) straddles up to 32 of them, while a
/// quantized pool's page holds at least one worst-case sparse row
/// (`kv_dim` bytes, the constructor's floor).
fn page_size(kv_dim: usize, quantized: bool, eighths: usize) -> usize {
    let floor = if quantized { kv_dim } else { 1 };
    (eighths * kv_dim / 8).max(floor)
}

/// Appends the `d`-wide K/V rows of `tokens[range]` layer-major, the way
/// one engine step feeds a chunk. A row is a pure function of its token,
/// position, layer and kind, as a real model's rows are of the prefix.
fn feed(
    pool: &mut PagedKvPool,
    seq: SeqId,
    tokens: &[u32],
    range: Range<usize>,
    layers: usize,
    d: usize,
    spiky: bool,
) {
    for layer in 0..layers {
        for pos in range.clone() {
            let seed = (u64::from(tokens[pos]) << 24) ^ ((pos as u64) << 8) ^ (layer as u64) << 1;
            let (k, v) = (kv_row(d, seed, spiky), kv_row(d, seed | 1, spiky));
            pool.append(seq, layer, &k, &v).unwrap();
        }
    }
}

/// One sequence the bound property drives: its tokens (prompt, then
/// decode), how many are cached, and whether it sits on the host tier.
struct Lane {
    seq: SeqId,
    tokens: Vec<u32>,
    pos: usize,
    suspended: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Sequence A prefills its prompt in random chunks (sealing trie
    /// blocks), then B and C adopt its first `shared` tokens and all three
    /// run on, round-robin, one random chunk at a time, any of them
    /// suspended to host between its chunks. Before every chunk the bound
    /// is taken; the chunk may open no more pages than it said. The
    /// prompts diverge in distinct token ranges, so no pending block ever
    /// seals a copy of another (a late dedup would free pages mid-chunk).
    #[test]
    fn the_page_bound_covers_every_chunk(
        layers in 1usize..4,
        kv_heads in 1usize..5,
        head_dim in prop::sample::select(vec![2usize, 4, 8, 16]),
        block_tokens in 2usize..9,
        method in prop::sample::select(vec![Method::Exact, Method::Oaken, Method::Fp16]),
        eighths in 1usize..48,
        prompt_len in 6usize..40,
        shared in 0usize..40,
        chunks in prop::collection::vec((1usize..12, any::<bool>()), 6..24),
    ) {
        let cfg = geometry(layers, kv_heads, head_dim);
        let q = quantizer(method, layers);
        let page = page_size(cfg.kv_dim(), q.is_some(), eighths);
        let decode = 24;
        let probe = PagedKvPool::for_model(&cfg, q.clone(), 1, page);
        let floors = 4 * (3 * (prompt_len + decode) / block_tokens + 3) as u64;
        let capacity = 2 * probe.pages_for_tokens(3 * (prompt_len + decode)) + floors;
        let mut pool = PagedKvPool::for_model(&cfg, q, capacity as u32, page);
        pool.set_block_tokens(block_tokens);

        let tokens_a: Vec<u32> = (0..(prompt_len + decode) as u32).collect();
        let a = pool.alloc_seq_with_prefix(&tokens_a[..prompt_len]).seq;
        let mut lanes = vec![Lane { seq: a, tokens: tokens_a, pos: 0, suspended: false }];
        for (i, &(n, suspend)) in chunks.iter().enumerate() {
            if lanes.len() == 1 && lanes[0].pos >= prompt_len {
                for salt in [1_000u32, 2_000] {
                    let mut tokens = lanes[0].tokens[..shared.min(prompt_len)].to_vec();
                    tokens.extend(salt..salt + (prompt_len + decode - tokens.len()) as u32);
                    let adopted = pool.alloc_seq_with_prefix(&tokens[..prompt_len]);
                    lanes.push(Lane { seq: adopted.seq, tokens, pos: adopted.matched_tokens, suspended: false });
                }
            }
            let live = lanes.len();
            let lane = &mut lanes[i % live];
            if lane.suspended {
                pool.resume_seq(lane.seq).unwrap();
                lane.suspended = false;
            }
            let n = n.min(lane.tokens.len() - lane.pos);
            let before = pool.mmu().allocator().allocated_pages();
            let bound = pool.pages_possibly_needed_n(lane.seq, n).unwrap();
            feed(&mut pool, lane.seq, &lane.tokens, lane.pos..lane.pos + n, layers, cfg.kv_dim(), true);
            lane.pos += n;
            let opened = pool.mmu().allocator().allocated_pages() - before;
            prop_assert!(
                opened <= bound,
                "{n} tokens at {} opened {opened} pages, bound {bound} (page {page}, {method:?})",
                lane.pos - n
            );
            if suspend {
                pool.suspend_seq(lane.seq).unwrap();
                lane.suspended = true;
            }
        }
    }

    /// A lone unshared sequence of `t` tokens holds no more pages than the
    /// admission estimate says: exactly packed bytes plus one floor per
    /// class for exact f32 and FP16, and for Oaken whenever the rows sit at
    /// or below the profiled outlier rate (calm rows), the rate the
    /// estimate's nominal bytes per token assume. A prompt admitted through
    /// the trie (`block_tokens` > 0) is split into block owners, each with
    /// its own floors: it may exceed the estimate by one page per class
    /// per planned block, and by no more.
    #[test]
    fn pages_for_tokens_covers_a_lone_sequence(
        layers in 1usize..4,
        kv_heads in 1usize..5,
        head_dim in prop::sample::select(vec![2usize, 4, 8, 16]),
        method in prop::sample::select(vec![Method::Exact, Method::Oaken, Method::Fp16]),
        eighths in 1usize..48,
        tokens in 1usize..300,
        // 0: allocated without a prompt plan, as a lone decode sequence.
        block_tokens in 0usize..33,
    ) {
        let cfg = geometry(layers, kv_heads, head_dim);
        let q = quantizer(method, layers);
        let sparse = q.is_some();
        let page = page_size(cfg.kv_dim(), sparse, eighths);
        let probe = PagedKvPool::for_model(&cfg, q.clone(), 1, page);
        let estimate = probe.pages_for_tokens(tokens);
        let ids: Vec<u32> = (0..tokens as u32).collect();
        let mut pool = PagedKvPool::for_model(&cfg, q, 4 * estimate as u32 + 8 * tokens as u32, page);
        let (seq, blocks) = match block_tokens {
            0 => (pool.alloc_seq(), 0),
            bt => {
                pool.set_block_tokens(bt);
                let seq = pool.alloc_seq_with_prefix(&ids).seq;
                let planned = if pool.prefix_sharing() { (tokens - 1) / bt } else { 0 };
                (seq, planned as u64)
            }
        };
        feed(&mut pool, seq, &ids, 0..tokens, layers, cfg.kv_dim(), false);
        // Sealed blocks leave the sequence for the trie: count every page.
        let held = u64::from(pool.mmu().allocator().allocated_pages());
        let allowance = blocks * (1 + u64::from(sparse));
        prop_assert!(
            held <= estimate + allowance,
            "{tokens} tokens in {blocks} blocks hold {held} pages, \
             estimate {estimate} + {allowance} (page {page}, {method:?})"
        );
    }
}

/// On both benchmark geometries — `long_context`'s `proxy(2, 128)` with
/// four KV heads on 1 KiB pages, and the chat workloads' `proxy(2, 256)`
/// on 512 B pages — a 1,024-token prompt planned into 16-token trie blocks
/// fills at least 80 % of the bytes of the pages it holds.
#[test]
fn a_kilotoken_prompt_fills_four_fifths_of_its_pages() {
    let mut long_context = ModelConfig::llama2_7b().proxy(2, 128);
    long_context.num_heads = 4;
    long_context.num_kv_heads = 4;
    let chat = ModelConfig::llama2_7b().proxy(2, 256);
    for (cfg, page) in [(long_context, 1024), (chat, 512)] {
        let mut pool = PagedKvPool::for_model(&cfg, quantizer(Method::Oaken, 2), 4096, page);
        let prompt: Vec<u32> = (0..1024).collect();
        let seq = pool.alloc_seq_with_prefix(&prompt).seq;
        feed(
            &mut pool,
            seq,
            &prompt,
            0..prompt.len(),
            2,
            cfg.kv_dim(),
            true,
        );
        let fill = 1.0 - pool.mmu().internal_fragmentation();
        assert!(
            fill >= 0.8,
            "kv_dim {} on {page} B pages: page fill {fill:.3}",
            cfg.kv_dim()
        );
    }
}
