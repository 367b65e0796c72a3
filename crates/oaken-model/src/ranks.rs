//! Tensor-parallel rank sharding: N engine ranks, each owning a
//! contiguous slice of the KV heads, the matching row shard of every
//! projection matrix, and its channel slice of every KV row in the pool —
//! glued back together by the deterministic all-reduce of
//! `oaken-runtime`'s [`Comm`]. This module holds the ownership map
//! ([`RankPlan`]) and the gather primitives the one forward pass
//! ([`Model::forward_batch_sharded`]) merges rank shards with; the
//! [`PagedKvPool`](crate::PagedKvPool) keeps one data plane per rank of
//! the plan under its one control plane ([`set_ranks`]). A 1-rank plan is
//! the unsharded engine.
//!
//! This is the software analogue of Oaken's multi-channel deployment
//! (§5.2: one quantization engine per memory channel, each owning its
//! shard of the KV stream): work is partitioned *by ownership* up front,
//! every floating-point accumulation chain lives inside exactly one rank,
//! and the only cross-rank arithmetic is [`Comm::all_reduce`]'s
//! fixed-shape combine tree. Consequences, in the repository's standing
//! bit-exactness discipline:
//!
//! * **Row-sharded projections** (`Wq`/`Wk`/`Wv` by head, `Wo`, FFN and
//!   LM head by [`chunk_range`]) produce the same bits under every shard
//!   map: every output element is computed by exactly one task as one
//!   serial multiply-then-add chain over its row — one vector lane of
//!   [`Tensor::matvec_batch_rows`], whose lanes are the output rows of a
//!   16-row panel and never cut a row's chain; a shard edge inside a panel
//!   only decides which rows of the panel each rank stores — and the
//!   all-reduce's `+0.0` identity passes the owner's bits through
//!   unchanged.
//! * **Attention is head-local**, so each rank attends over its own KV
//!   heads against its own channels of the pool; the rank outputs are
//!   disjoint q-head slices gathered by one all-reduce per layer.
//! * **Each K/V row is encoded once, at full width** (Oaken's scales are
//!   whole-row min/max), and every rank adopts its heads' channels of that
//!   encoding; a rank's decoded views are bitwise slices of the 1-rank
//!   views (the `shard_*` tests below), so rank-local attention reads
//!   exactly the bits the unsharded kernel would have read for those
//!   heads.
//!
//! Net: N-rank logits are **bit-exact with the 1-rank engine** in
//! [`KernelMode::Exact`] for every thread count, and identical-within-mode
//! (in fact also bitwise, since sliced fused decode is a bitwise slice of
//! the full fused decode) for [`KernelMode::Fused`].
//!
//! Communication volume is accounted the way a real deployment would pay
//! it: one all-reduce per projection merge (attention gather, `Wo`, FFN
//! hidden, FFN down, and the final logits), plus a per-row scale sync for
//! quantized pools (each rank computes its own K/V channels; only the
//! whole-row min/max scales must be agreed globally). One rank has no
//! interconnect: its shard of every product *is* the product, and
//! [`Comm`] accounts nothing.
//!
//! [`KernelMode::Exact`]: crate::cache::KernelMode::Exact
//! [`KernelMode::Fused`]: crate::cache::KernelMode::Fused
//! [`Model::forward_batch_sharded`]: crate::Model::forward_batch_sharded
//! [`set_ranks`]: crate::PagedKvPool::set_ranks

use crate::attention::AttentionShape;
use crate::config::ModelConfig;
use oaken_runtime::{chunk_range, Comm, Runtime};
use oaken_tensor::Tensor;
use std::ops::Range;

/// The static shard-ownership map of a rank count over a model: which
/// contiguous KV heads (and therefore which query heads and which K/V
/// channels) each rank owns. Head ranges come from [`chunk_range`], so
/// odd head counts split as evenly as possible (remainder heads to the
/// low ranks) — `head_ranges_balance_odd_counts` in `oaken-runtime` pins
/// the arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankPlan {
    ranks: usize,
    num_kv_heads: usize,
    head_dim: usize,
    group: usize,
    d_model: usize,
}

impl RankPlan {
    /// Builds the ownership map.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= ranks <= cfg.num_kv_heads` (a rank must own at
    /// least one whole KV head — attention is head-local, so heads are
    /// the finest shard unit).
    pub fn new(cfg: &ModelConfig, ranks: usize) -> Self {
        assert!(ranks >= 1, "need at least one rank");
        assert!(
            ranks <= cfg.num_kv_heads,
            "{ranks} ranks cannot shard {} KV heads (each rank owns at least one)",
            cfg.num_kv_heads
        );
        Self {
            ranks,
            num_kv_heads: cfg.num_kv_heads,
            head_dim: cfg.head_dim(),
            group: (cfg.num_heads / cfg.num_kv_heads).max(1),
            d_model: cfg.d_model,
        }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The contiguous KV heads rank `r` owns.
    pub fn kv_heads(&self, r: usize) -> Range<usize> {
        chunk_range(r, self.num_kv_heads, self.ranks)
    }

    /// The K/V row channels rank `r` stores (its heads × `head_dim`).
    pub fn kv_channels(&self, r: usize) -> Range<usize> {
        let h = self.kv_heads(r);
        h.start * self.head_dim..h.end * self.head_dim
    }

    /// The query/attention-output channels rank `r` computes (its heads ×
    /// GQA group × `head_dim`).
    pub fn q_channels(&self, r: usize) -> Range<usize> {
        let h = self.kv_heads(r);
        h.start * self.group * self.head_dim..h.end * self.group * self.head_dim
    }

    /// The attention problem rank `r` solves: its own heads only.
    pub(crate) fn attention_shape(&self, r: usize, window: Option<usize>) -> AttentionShape {
        let kv_heads = self.kv_heads(r).len();
        AttentionShape {
            num_heads: kv_heads * self.group,
            num_kv_heads: kv_heads,
            head_dim: self.head_dim,
            window,
        }
    }
}

/// What a row-sharded product leaves on the ranks: `[rank][input]` →
/// that rank's rows of the input's product
/// ([`Tensor::matvec_batch_shards`]'s output).
pub(crate) type RowShards = Vec<Vec<Vec<f32>>>;

pub(crate) fn as_refs(vs: &[Vec<f32>]) -> Vec<&[f32]> {
    vs.iter().map(|v| v.as_slice()).collect()
}

/// `m` rows split evenly over `n` ranks, rank order.
pub(crate) fn even_rows(n: usize, m: usize) -> Vec<Range<usize>> {
    (0..n).map(|r| chunk_range(r, m, n)).collect()
}

/// The full-width vector per input, each rank's rows side by side in rank
/// order — for rows every rank needs whole but no link carries (the K/V
/// rows the pool encodes once and slices per rank).
pub(crate) fn concat_shards(mut shards: RowShards) -> Vec<Vec<f32>> {
    let mut full = shards.remove(0);
    for shard in shards {
        for (row, part) in full.iter_mut().zip(shard) {
            row.extend(part);
        }
    }
    full
}

/// Merges the ranks' shards of one product (`rows[r]` of every input on
/// rank `r`, contiguous and covering) into full-width vectors with one
/// [`Comm::all_reduce`]: each rank scatters its rows into a zero-padded
/// full-width buffer, and since every element is owned by exactly one rank
/// the reduce is a bit-exact gather (the `+0.0` identity passes the
/// owner's bits through). A lone rank owns every row — its shard is the
/// product and nothing crosses a link.
pub(crate) fn gather(
    comm: &mut Comm,
    mut shards: RowShards,
    rows: &[Range<usize>],
) -> Vec<Vec<f32>> {
    if shards.len() == 1 {
        return shards.remove(0);
    }
    let m = rows.last().map_or(0, |r| r.end);
    let n_inputs = shards[0].len();
    let mut parts: Vec<Vec<f32>> = vec![vec![0.0f32; n_inputs * m]; shards.len()];
    for ((part, outs), rows) in parts.iter_mut().zip(&shards).zip(rows) {
        for (s, out) in outs.iter().enumerate() {
            part[s * m + rows.start..s * m + rows.end].copy_from_slice(out);
        }
    }
    let mut refs: Vec<&mut [f32]> = parts.iter_mut().map(|p| p.as_mut_slice()).collect();
    comm.all_reduce(&mut refs);
    (0..n_inputs)
        .map(|s| parts[0][s * m..(s + 1) * m].to_vec())
        .collect()
}

/// `w · x` per input, rows split evenly over the ranks and gathered by one
/// all-reduce: the `Wo`, FFN-down, router and LM-head product.
pub(crate) fn sharded_matvec(
    rt: &Runtime,
    comm: &mut Comm,
    w: &Tensor,
    xs: &[&[f32]],
) -> Vec<Vec<f32>> {
    let rows = even_rows(comm.num_ranks(), w.shape()[0]);
    let shards = w
        .matvec_batch_shards(rt, xs, &rows)
        .expect("projection shape");
    gather(comm, shards, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::KernelMode;
    use crate::model::{BatchStep, Model};
    use crate::pool::{PagedKvPool, PoolBatchView, PoolError, SeqId};
    use crate::sampling::sample_greedy;
    use oaken_core::{
        EncodedStore, KvKind, KvQuantizer, KvRowStream, OakenConfig, OakenQuantizer,
        OfflineProfiler, OnlineCost, PackedRows,
    };
    use oaken_mmu::FaultPlan;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn row(d: usize, seed: u64) -> Vec<f32> {
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
                    p.observe(layer, kind, &row(d.max(64), s * 3 + layer as u64));
                }
            }
        }
        Arc::new(OakenQuantizer::new(config, p.try_finish().unwrap()))
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// `pool` split into `ranks` data planes.
    fn split(mut pool: PagedKvPool, ranks: usize) -> PagedKvPool {
        pool.set_ranks(ranks);
        pool
    }

    /// One engine-style forward over `pool` (as many ranks as it holds).
    fn forward(
        model: &Model,
        rt: &Runtime,
        comm: &mut Comm,
        pool: &mut PagedKvPool,
        seqs: &[SeqId],
        steps: &[BatchStep],
    ) -> Vec<Vec<f32>> {
        let plan = pool.plan().clone();
        let mut view = PoolBatchView::new(pool, seqs);
        model.forward_batch_sharded(rt, &plan, comm, &mut view, steps, None)
    }

    /// Drives `iters` engine-style iterations (a prompt chunk, then
    /// greedy decode) over two interleaved sequences through the forward
    /// pass at one rank and at `ranks` ranks, comparing every step's
    /// logits bitwise (the independent oracle for the one-rank pass is
    /// `tests/reference_forward.rs`).
    fn assert_n_ranks_match_one_rank(
        cfg: &ModelConfig,
        quantizer: Option<Arc<dyn KvQuantizer>>,
        ranks: usize,
        threads: usize,
        kernel: KernelMode,
        iters: usize,
    ) {
        let model = Model::synthetic(cfg.clone(), 42);
        let rt = Runtime::new(threads);

        let donor = || {
            let mut p = PagedKvPool::for_model(cfg, quantizer.clone(), 512, 4096);
            p.set_kernel_mode(kernel);
            p
        };
        let mut one = donor();
        let mut one_comm = Comm::new(1);
        let mut pools = split(donor(), ranks);
        let mut comm = Comm::new(ranks);

        let alloc2 = |p: &mut PagedKvPool| {
            vec![
                p.alloc_seq_with_prefix(&[]).seq,
                p.alloc_seq_with_prefix(&[]).seq,
            ]
        };
        let one_seqs = alloc2(&mut one);
        let seqs = alloc2(&mut pools);
        assert_eq!(one_seqs, seqs, "one-rank and ranked ids align");

        let mut pos = [0usize; 2];
        let mut last = [1u32, 7u32];
        for it in 0..iters {
            // First iteration feeds a 3-token chunk to slot 0; afterwards
            // every slot advances one token.
            let mut steps = Vec::new();
            for slot in 0..2usize {
                let chunk = if it == 0 && slot == 0 { 3 } else { 1 };
                for j in 0..chunk {
                    let token = (last[slot] + j as u32 * 11) % cfg.vocab_size as u32;
                    steps.push(BatchStep {
                        slot,
                        pos: pos[slot] + j,
                        token,
                    });
                }
                pos[slot] += chunk;
            }

            let want = forward(&model, &rt, &mut one_comm, &mut one, &one_seqs, &steps);
            let got = forward(&model, &rt, &mut comm, &mut pools, &seqs, &steps);
            assert_eq!(want.len(), got.len());
            for (s, (w, g)) in want.iter().zip(&got).enumerate() {
                assert_eq!(
                    bits(w),
                    bits(g),
                    "iter {it} step {s}: ranked logits diverged ({ranks} ranks, {threads} threads, {kernel:?})"
                );
            }
            for slot in 0..2usize {
                let slot_last = steps
                    .iter()
                    .rposition(|s| s.slot == slot)
                    .expect("every slot stepped");
                last[slot] = sample_greedy(&got[slot_last]);
            }
        }
        assert!(
            comm.stats().allreduce_calls > 0,
            "ranked forward reduces at least once per layer"
        );
        assert_eq!(
            one_comm.stats(),
            oaken_runtime::CommStats::default(),
            "one rank has no interconnect to account"
        );
    }

    fn dense_cfg() -> ModelConfig {
        // 8 KV heads / head_dim 8 — rank counts 2, 3 (uneven), 4 all fit.
        ModelConfig::llama2_7b().proxy(2, 64)
    }

    #[test]
    fn exact_pools_match_unsharded_bitwise() {
        for ranks in [2, 3, 4] {
            for threads in [1, 4] {
                assert_n_ranks_match_one_rank(
                    &dense_cfg(),
                    None,
                    ranks,
                    threads,
                    KernelMode::Exact,
                    4,
                );
            }
        }
    }

    #[test]
    fn quantized_pools_match_unsharded_bitwise() {
        let cfg = dense_cfg();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        for ranks in [2, 4] {
            for threads in [1, 4] {
                assert_n_ranks_match_one_rank(
                    &cfg,
                    Some(q.clone()),
                    ranks,
                    threads,
                    KernelMode::Exact,
                    4,
                );
            }
        }
    }

    #[test]
    fn fused_kernels_match_unsharded_bitwise() {
        // Sliced fused decode is a bitwise slice of the full fused decode
        // (kernel tests), so fused ranked logits match the fused 1-rank
        // pass exactly — not merely within tolerance.
        let cfg = dense_cfg();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        for ranks in [2, 3] {
            assert_n_ranks_match_one_rank(&cfg, Some(q.clone()), ranks, 4, KernelMode::Fused, 4);
        }
    }

    #[test]
    fn moe_layers_match_unsharded_bitwise() {
        // Mixtral proxy: 2 KV heads (GQA 4), 8 experts top-2.
        let cfg = ModelConfig::mixtral_8x7b().proxy(2, 32);
        assert!(cfg.moe.is_some(), "mixtral proxy keeps its experts");
        assert_n_ranks_match_one_rank(&cfg, None, 2, 4, KernelMode::Exact, 3);
    }

    #[test]
    fn comm_accounting_counts_reduces_and_scale_syncs() {
        let cfg = dense_cfg();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        let model = Model::synthetic(cfg.clone(), 42);
        let rt = Runtime::serial();
        let donor = PagedKvPool::for_model(&cfg, Some(q), 256, 4096);
        let mut pools = split(donor, 2);
        let mut comm = Comm::new(2);
        let seqs = vec![pools.alloc_seq_with_prefix(&[]).seq];
        let steps = vec![BatchStep {
            slot: 0,
            pos: 0,
            token: 5,
        }];
        forward(&model, &rt, &mut comm, &mut pools, &seqs, &steps);
        // 4 reduces per dense layer + 1 logits reduce.
        assert_eq!(
            comm.stats().allreduce_calls,
            (cfg.num_layers * 4 + 1) as u64
        );
        // Scale syncs moved bytes beyond the reduces alone.
        assert!(comm.stats().sync_calls >= (2 * cfg.num_layers) as u64);
        assert!(comm.stats().bytes_moved > 0);
    }

    /// All-reduce traffic follows the rows a stage carries: dead steps
    /// pay their scale syncs and the layers below the last, and a stage
    /// over zero rows launches no collective.
    #[test]
    fn comm_accounting_follows_live_rows() {
        use crate::model::StepBatch;
        let cfg = dense_cfg();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        let model = Model::synthetic(cfg.clone(), 42);
        let steps: Vec<BatchStep> = (0..3)
            .map(|pos| BatchStep {
                slot: 0,
                pos,
                token: 5 + pos as u32,
            })
            .collect();
        let traffic = |live: &[usize]| {
            let donor = PagedKvPool::for_model(&cfg, Some(q.clone()), 256, 4096);
            let mut pools = split(donor, 2);
            let plan = pools.plan().clone();
            let mut comm = Comm::new(2);
            let seqs = vec![pools.alloc_seq_with_prefix(&[]).seq];
            let mut view = PoolBatchView::new(&mut pools, &seqs);
            let batch = StepBatch::new(&steps, live);
            let logits = model.forward_batch_sharded(
                &Runtime::serial(),
                &plan,
                &mut comm,
                &mut view,
                batch,
                None,
            );
            assert_eq!(logits.len(), live.len());
            comm.stats()
        };
        let (none, last, all) = (traffic(&[]), traffic(&[2]), traffic(&[0, 1, 2]));
        let layers = cfg.num_layers as u64;
        assert_eq!(none.allreduce_calls, (layers - 1) * 4);
        assert_eq!(last.allreduce_calls, layers * 4 + 1);
        assert_eq!(all.allreduce_calls, layers * 4 + 1);
        // Every appended row syncs its scales, whoever is live.
        assert_eq!(none.sync_calls, all.sync_calls);
        // The last layer's and the LM head's reduces carry the live rows:
        // three times the bytes for three times the rows.
        assert_eq!(
            all.bytes_moved - none.bytes_moved,
            3 * (last.bytes_moved - none.bytes_moved)
        );
    }

    /// What an operation may not touch on a failure: per rank, its page
    /// accounting, host use and every layer's views of `seq`, and where
    /// `seq` lives.
    fn snapshot(pool: &mut PagedKvPool, seq: SeqId) -> Vec<String> {
        let live = pool.is_live(seq);
        let mut out = vec![format!("{live} {}", pool.is_suspended(seq))];
        for r in 0..pool.num_ranks() {
            let rank = pool.rank(r);
            let (acc, host) = (rank.page_accounting(), rank.host_pages_used());
            out.push(format!("rank {r}: {acc:?} host {host}"));
            if live {
                let keys = bits(pool.rank_view(r, seq, 0, KvKind::Key));
                out.push(format!("rank {r} keys {keys:?}"));
            }
        }
        out
    }

    /// Suspend, resume and import span every rank as one operation: a
    /// fault, or one rank short of pages, leaves every rank untouched, and
    /// the round trip that then succeeds is bit-exact on every rank.
    #[test]
    fn suspend_and_resume_stay_atomic_across_shards() {
        let cfg = dense_cfg();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        let model = Model::synthetic(cfg.clone(), 42);
        let rt = Runtime::serial();
        // A 3-rank pool (3 / 3 / 2 heads) holding one sequence fed four
        // tokens through the forward pass.
        let fed = || {
            let mut pool = split(PagedKvPool::for_model(&cfg, Some(q.clone()), 256, 4096), 3);
            let mut comm = Comm::new(3);
            let seqs = vec![pool.alloc_seq_with_prefix(&[]).seq];
            let mut feed = 3u32;
            for pos in 0..4usize {
                let steps = vec![BatchStep {
                    slot: 0,
                    pos,
                    token: feed,
                }];
                let logits = forward(&model, &rt, &mut comm, &mut pool, &seqs, &steps);
                feed = sample_greedy(&logits[0]);
            }
            (pool, seqs, comm, feed)
        };
        let every_poll_faults = FaultPlan::new(1).with_rate_permille(1000);
        let fault = |e: PoolError| matches!(e, PoolError::Fault { .. });

        // Suspend: a fault, then exactly one rank short of host pages.
        let (mut pool, seqs, _, _) = fed();
        let private: Vec<u32> = (pool.ranks())
            .map(|rank| rank.page_accounting().private)
            .collect();
        let short = |host: usize| {
            (0..3)
                .filter(|&r| private[r] as usize > chunk_range(r, host, 3).len())
                .count()
        };
        let total: usize = private.iter().map(|&p| p as usize).sum();
        let host = (0..total).rev().find(|&h| short(h) == 1).unwrap();
        pool.set_host_pages(host as u32);
        let before = snapshot(&mut pool, seqs[0]);
        let err = pool.suspend_seq(seqs[0]).unwrap_err();
        assert!(matches!(err, PoolError::OutOfHostPages { .. }), "{err}");
        assert_eq!(snapshot(&mut pool, seqs[0]), before, "short host rank");
        pool.set_host_pages(4096);
        let before = snapshot(&mut pool, seqs[0]);
        pool.install_faults(every_poll_faults);
        assert!(fault(pool.suspend_seq(seqs[0]).unwrap_err()));
        assert_eq!(snapshot(&mut pool, seqs[0]), before, "faulted suspend");

        // Resume: a fault, then a device one rank cannot thaw into.
        let (mut pool, seqs, _, _) = fed();
        pool.suspend_seq(seqs[0]).unwrap();
        let before = snapshot(&mut pool, seqs[0]);
        let filler = pool.alloc_seq();
        let d = cfg.kv_dim();
        let mut t = 0;
        while pool.append(filler, 0, &row(d, t), &row(d, t + 1)).is_ok() {
            t += 1;
        }
        let filled = snapshot(&mut pool, seqs[0]);
        let err = pool.resume_seq(seqs[0]).unwrap_err();
        assert!(matches!(err, PoolError::OutOfPages { .. }), "{err}");
        assert_eq!(snapshot(&mut pool, seqs[0]), filled, "short device rank");
        pool.free_seq(filler).unwrap();
        assert_eq!(snapshot(&mut pool, seqs[0]), before);
        pool.install_faults(every_poll_faults);
        assert!(fault(pool.resume_seq(seqs[0]).unwrap_err()));
        assert_eq!(snapshot(&mut pool, seqs[0]), before, "faulted resume");

        // Import: a fault, then one rank's host tier too small to land.
        let (mut src, seqs, _, _) = fed();
        let transfer = src.export_seq(seqs[0]).unwrap();
        assert_eq!(transfer.payloads().len(), 3, "one payload per rank");
        let mut dst = split(PagedKvPool::for_model(&cfg, Some(q.clone()), 256, 4096), 3);
        let landing: Vec<u32> = (transfer.payloads().iter())
            .map(|p| p.pages_needed(4096).unwrap())
            .collect();
        let total: u32 = landing.iter().sum();
        let host = (0..total).rev().find(|&h| {
            let fits = |r: usize| landing[r] as usize <= chunk_range(r, h as usize, 3).len();
            (0..3).filter(|&r| !fits(r)).count() == 1
        });
        dst.set_host_pages(host.unwrap());
        let (transfer, err) = dst.import_seq(transfer).unwrap_err();
        assert!(matches!(err, PoolError::OutOfHostPages { .. }), "{err}");
        assert_eq!(dst.host_pages_used(), 0, "nothing landed on any rank");
        dst.set_host_pages(4096);
        dst.install_faults(every_poll_faults);
        let (transfer, err) = dst.import_seq(transfer).unwrap_err();
        assert!(fault(err));
        assert_eq!(dst.host_pages_used(), 0, "nothing landed on any rank");
        assert_eq!(dst.suspended_seqs(), 0);
        let mut dst = split(PagedKvPool::for_model(&cfg, Some(q.clone()), 256, 4096), 3);
        let (landed, _) = dst.import_seq(transfer).unwrap();
        dst.resume_seq(landed).unwrap();
        assert_eq!(dst.seq_len(landed, 0), 4);

        // With room and no faults, the round trip is bit-exact on every
        // rank and the next forward continues from the thawed state.
        let (mut pools, seqs, mut comm, feed) = fed();
        let before: Vec<Vec<u32>> = (0..3)
            .map(|r| bits(pools.rank_view(r, seqs[0], 0, KvKind::Key)))
            .collect();
        let receipt = pools.suspend_seq(seqs[0]).expect("suspend fits host tiers");
        assert!(receipt.bytes > 0);
        for rank in pools.ranks() {
            assert_eq!(rank.page_accounting().private, 0, "every rank froze");
            assert!(rank.host_pages_used() > 0, "every rank froze");
        }
        let back = pools.resume_seq(seqs[0]).expect("resume fits device");
        assert_eq!(back.bytes, receipt.bytes, "round trip moves the same bytes");
        for (r, want) in before.iter().enumerate() {
            assert_eq!(
                &bits(pools.rank_view(r, seqs[0], 0, KvKind::Key)),
                want,
                "rank {r} resumed bit-exactly"
            );
        }
        let steps = vec![BatchStep {
            slot: 0,
            pos: 4,
            token: feed,
        }];
        forward(&model, &rt, &mut comm, &mut pools, &seqs, &steps);
        assert!(pools.free_seq(seqs[0]).is_ok());
        assert_eq!(pools.free_pages(), pools.capacity_pages());
    }

    /// `q` with every row its streams quantize counted: `append_row` and
    /// `append_row_encoded` calls, adoptions excluded.
    struct CountingQuantizer {
        inner: Arc<dyn KvQuantizer>,
        encodes: Arc<AtomicUsize>,
    }

    impl KvQuantizer for CountingQuantizer {
        fn name(&self) -> &'static str {
            self.inner.name()
        }
        fn roundtrip_matrix(
            &self,
            data: &[f32],
            rows: usize,
            d: usize,
            layer: usize,
            kind: KvKind,
        ) -> Vec<f32> {
            self.inner.roundtrip_matrix(data, rows, d, layer, kind)
        }
        fn effective_bits(&self, rows: usize, d: usize) -> f64 {
            self.inner.effective_bits(rows, d)
        }
        fn online_cost(&self) -> OnlineCost {
            self.inner.online_cost()
        }
        fn row_stream(&self, d: usize, layer: usize, kind: KvKind) -> Option<Box<dyn KvRowStream>> {
            let inner = self.inner.row_stream(d, layer, kind)?;
            let encodes = self.encodes.clone();
            Some(Box::new(CountingStream { inner, encodes }))
        }
        fn prefix_deterministic(&self) -> bool {
            self.inner.prefix_deterministic()
        }
    }

    struct CountingStream {
        inner: Box<dyn KvRowStream>,
        encodes: Arc<AtomicUsize>,
    }

    impl KvRowStream for CountingStream {
        fn append_row(&mut self, row: &[f32], view: &mut Vec<f32>) {
            self.encodes.fetch_add(1, Ordering::Relaxed);
            self.inner.append_row(row, view);
        }
        fn held_bytes(&self) -> usize {
            self.inner.held_bytes()
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
        fn encoded_rows(&self) -> Option<&EncodedStore> {
            self.inner.encoded_rows()
        }
        fn encoded_rows_mut(&mut self) -> Option<&mut EncodedStore> {
            self.inner.encoded_rows_mut()
        }
        fn append_row_encoded(&mut self, row: &[f32]) -> bool {
            self.encodes.fetch_add(1, Ordering::Relaxed);
            self.inner.append_row_encoded(row)
        }
    }

    /// Each K/V row is quantized exactly once, whatever the rank count and
    /// kernel: shards adopt their channels of the one encoding.
    #[test]
    fn every_row_is_encoded_once_at_any_rank_count() {
        let cfg = dense_cfg();
        let inner = oaken(cfg.kv_dim(), cfg.num_layers);
        let model = Model::synthetic(cfg.clone(), 42);
        let rt = Runtime::serial();
        // A 4-token prompt chunk, then two decode steps.
        let feeds: [&[u32]; 3] = [&[3, 9, 4, 1], &[7], &[2]];
        let tokens = feeds.iter().map(|f| f.len()).sum::<usize>();
        for kernel in [KernelMode::Exact, KernelMode::Fused] {
            for ranks in 1..=4 {
                let encodes = Arc::new(AtomicUsize::new(0));
                let q = CountingQuantizer {
                    inner: inner.clone(),
                    encodes: encodes.clone(),
                };
                let mut donor = PagedKvPool::for_model(&cfg, Some(Arc::new(q)), 512, 4096);
                assert_eq!(donor.set_kernel_mode(kernel), kernel);
                let mut pools = split(donor, ranks);
                let mut comm = Comm::new(ranks);
                let seqs = vec![pools.alloc_seq_with_prefix(&[]).seq];
                let mut pos = 0;
                for feed in feeds {
                    let steps: Vec<BatchStep> = (feed.iter().enumerate())
                        .map(|(j, &token)| BatchStep {
                            slot: 0,
                            pos: pos + j,
                            token,
                        })
                        .collect();
                    forward(&model, &rt, &mut comm, &mut pools, &seqs, &steps);
                    pos += feed.len();
                }
                // The pool's encoder quantizes each row once, at full
                // width, and every rank's streams adopt their channels of
                // it, quantizing none.
                assert_eq!(
                    pools.rows_encoded(),
                    2 * tokens * cfg.num_layers,
                    "{ranks} ranks, {kernel:?}"
                );
                assert_eq!(
                    encodes.load(Ordering::Relaxed),
                    0,
                    "{ranks} ranks, {kernel:?}"
                );
            }
        }
    }

    /// `tokens` K/V rows per layer appended to one fresh sequence of a
    /// `ranks`-way split of a `kernel` pool over `q`.
    fn fed_pools(
        cfg: &ModelConfig,
        q: &Arc<dyn KvQuantizer>,
        ranks: usize,
        kernel: KernelMode,
        tokens: u64,
    ) -> (PagedKvPool, SeqId) {
        let mut donor = PagedKvPool::for_model(cfg, Some(q.clone()), 512, 4096);
        donor.set_kernel_mode(kernel);
        let mut pools = split(donor, ranks);
        let seq = pools.alloc_seq_with_prefix(&[]).seq;
        let d = cfg.kv_dim();
        for t in 0..tokens {
            for layer in 0..cfg.num_layers {
                let (k, v) = (row(d, 100 + 2 * t), row(d, 101 + 2 * t));
                pools.append(seq, layer, &k, &v).unwrap();
            }
        }
        (pools, seq)
    }

    /// Per rank `r` and layer, the `(keys, values)` views of `seq`.
    fn views(pools: &mut PagedKvPool, seq: SeqId, layers: usize) -> Vec<Vec<[Vec<u32>; 2]>> {
        (0..pools.num_ranks())
            .map(|r| {
                (0..layers)
                    .map(|layer| KvKind::ALL.map(|kind| bits(pools.rank_view(r, seq, layer, kind))))
                    .collect()
            })
            .collect()
    }

    /// Rank `r`'s channels of a one-rank view of `rows` rows.
    fn channels(view: &[u32], plan: &RankPlan, r: usize, rows: usize) -> Vec<u32> {
        let d = view.len() / rows;
        (0..rows)
            .flat_map(|t| view[t * d..][plan.kv_channels(r)].to_vec())
            .collect()
    }

    /// At 2, 3 (uneven: 3 / 3 / 2 heads) and 4 ranks of a `kernel` pool,
    /// every shard's encoded rows are the matching channel slices of the
    /// one-rank rows, its stores cover them, and its views are the
    /// matching channels of the one-rank Exact views.
    fn assert_shards_match_one_rank(kernel: KernelMode) {
        let cfg = dense_cfg();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        let tokens = 6;
        let (mut one, seq) = fed_pools(&cfg, &q, 1, KernelMode::Exact, tokens);
        let want = views(&mut one, seq, cfg.num_layers).remove(0);
        for ranks in [2, 3, 4] {
            let (mut pools, seq) = fed_pools(&cfg, &q, ranks, kernel, tokens);
            let plan = pools.plan().clone();
            for r in 0..ranks {
                let slots = pools.slots(r, seq).iter().flatten();
                for (slot, whole) in slots.zip(one.slots(0, seq).iter().flatten()) {
                    let stream = slot.stream().unwrap();
                    let export = |s: &dyn KvRowStream, width: usize| {
                        let stored = s.encoded_rows().unwrap();
                        let mut run = PackedRows::new(width);
                        stored.export(0..stored.len(), &mut run);
                        run
                    };
                    let channels = plan.kv_channels(r);
                    let rows = export(stream, channels.len());
                    let full_rows = export(whole.stream().unwrap(), cfg.kv_dim());
                    assert_eq!(rows.rows(), tokens as usize);
                    for (row, full) in rows.iter().zip(full_rows.iter()) {
                        let mut want = PackedRows::new(channels.len());
                        want.push_channels(full, channels.clone());
                        assert_eq!(row, want.row(0));
                    }
                    assert_eq!(stream.encoded_rows().unwrap().len(), tokens as usize);
                    // No shard has materialized a view before a read.
                    assert!(slot.view.is_empty());
                }
            }
            let got = views(&mut pools, seq, cfg.num_layers);
            for (r, shard) in got.iter().enumerate() {
                for (layer, pair) in shard.iter().enumerate() {
                    for (kind, view) in pair.iter().enumerate() {
                        let slice = channels(&want[layer][kind], &plan, r, tokens as usize);
                        assert_eq!(
                            view, &slice,
                            "{ranks} ranks: rank {r} layer {layer} kind {kind}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn shard_views_match_one_rank_slices() {
        assert_shards_match_one_rank(KernelMode::Exact);
    }

    /// Views a fused shard decodes on demand from its adopted rows.
    #[test]
    fn shard_lazy_decodes_match_one_rank_slices() {
        assert_shards_match_one_rank(KernelMode::Fused);
    }

    /// Shards store the dense codes and outliers once between them and a
    /// copy of the row's scales each: their payloads sum to the one-rank
    /// payload plus `ranks − 1` scale copies per row.
    #[test]
    fn shard_payloads_sum_to_one_rank_payload_plus_scale_copies() {
        let cfg = dense_cfg();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        let tokens = 4;
        let payload = |pools: &PagedKvPool, seq: SeqId| -> usize {
            (0..pools.num_ranks())
                .map(|r| {
                    pools.slots(r, seq)[0][0]
                        .stream()
                        .unwrap()
                        .payload_bytes()
                        .unwrap()
                })
                .sum()
        };
        let (one, seq) = fed_pools(&cfg, &q, 1, KernelMode::Fused, tokens);
        let whole = payload(&one, seq);
        let scale_bytes = 8; // ScaleSet::STORAGE_BITS / 8
        for ranks in [2, 4] {
            let (pools, seq) = fed_pools(&cfg, &q, ranks, KernelMode::Fused, tokens);
            assert_eq!(
                payload(&pools, seq),
                whole + (ranks - 1) * tokens as usize * scale_bytes,
                "{ranks} ranks"
            );
        }
    }

    #[test]
    fn page_peaks_track_per_rank_occupancy() {
        let cfg = dense_cfg();
        let model = Model::synthetic(cfg.clone(), 42);
        let rt = Runtime::serial();
        let donor = PagedKvPool::for_model(&cfg, None, 90, 4096);
        let mut pools = split(donor, 4);
        let mut comm = Comm::new(4);
        // Uneven capacity split: 90 pages over 4 ranks → 23/23/22/22.
        let caps: Vec<u32> = pools.ranks().map(|p| p.capacity_pages()).collect();
        assert_eq!(caps, vec![23, 23, 22, 22]);
        let seqs = vec![pools.alloc_seq_with_prefix(&[]).seq];
        let mut peaks = vec![0u32; 4];
        for pos in 0..3usize {
            let steps = vec![BatchStep {
                slot: 0,
                pos,
                token: 9,
            }];
            forward(&model, &rt, &mut comm, &mut pools, &seqs, &steps);
            for (peak, rank) in peaks.iter_mut().zip(pools.ranks()) {
                *peak = (*peak).max(rank.pages_in_use());
            }
        }
        assert_eq!(peaks.len(), 4);
        assert!(
            peaks.iter().all(|&p| p > 0),
            "every rank allocated pages: {peaks:?}"
        );
    }
}
