//! Tensor-parallel rank sharding: N engine ranks, each owning a
//! contiguous slice of the KV heads, the matching row shard of every
//! projection matrix, and a **private** [`PagedKvPool`] shard — glued back
//! together by the deterministic all-reduce of `oaken-runtime`'s
//! [`Comm`]. This module holds the ownership map ([`RankPlan`]), the
//! lockstep pool façade ([`RankedPools`]) and the gather primitives the
//! one forward pass ([`Model::forward_batch_sharded`]) merges rank shards
//! with; a 1-rank plan is the unsharded engine.
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
//!   [`Tensor::matvec_batch_rows`], whose lanes run across the step's
//!   inputs and never along a row — and the all-reduce's `+0.0` identity
//!   passes the owner's bits through unchanged.
//! * **Attention is head-local**, so each rank attends over its own KV
//!   heads against its own pool shard; the rank outputs are disjoint
//!   q-head slices gathered by one all-reduce per layer.
//! * **Pool shards append full-width rows** (Oaken's scales are whole-row
//!   min/max) and store only their heads' channels; the shard's decoded
//!   views are bitwise slices of the 1-rank views (`sharding` tests), so
//!   rank-local attention reads exactly the bits the unsharded kernel
//!   would have read for those heads.
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

use crate::attention::AttentionShape;
use crate::cache::KernelMode;
use crate::config::ModelConfig;
use crate::pool::{KvReadStats, KvTransfer, PagedKvPool, PoolError, PrefixAlloc, SeqId};
use crate::trie::PrefixStats;
use oaken_mmu::{FaultPlan, FaultStats, SwapReceipt};
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

/// The engine side of tensor parallelism: one private [`PagedKvPool`]
/// shard per rank, mutated in lockstep through this façade so sequence
/// ids, trie structure, and suspend/resume state never diverge across
/// ranks.
///
/// Rank 0 is the **lead shard**: it alone carries the fault injectors
/// (so a fault plan fires once per logical operation, not once per rank)
/// and answers the trie/statistics queries that are identical across
/// ranks by construction.
pub struct RankedPools {
    plan: RankPlan,
    pools: Vec<PagedKvPool>,
    peaks: Vec<u32>,
}

impl RankedPools {
    /// Wraps an unsharded pool as the single rank of a 1-rank plan (the
    /// legacy engine path, byte-for-byte).
    pub fn single(cfg: &ModelConfig, pool: PagedKvPool) -> Self {
        Self {
            plan: RankPlan::new(cfg, 1),
            pools: vec![pool],
            peaks: vec![0],
        }
    }

    /// Splits an idle donor pool into `ranks` private shards: device and
    /// host capacity are divided by [`chunk_range`], each shard owns its
    /// plan's KV heads, and the donor's quantizer, block size, sharing
    /// flag, and kernel mode carry over. `ranks <= 1` wraps the donor
    /// unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the donor holds live or suspended sequences, if `ranks`
    /// exceeds the model's KV heads, if the split leaves a rank without
    /// pages, or if the donor's quantizer cannot stream encoded rows
    /// (sharding slices the encoded form).
    pub fn split(cfg: &ModelConfig, donor: PagedKvPool, ranks: usize) -> Self {
        if ranks <= 1 {
            return Self::single(cfg, donor);
        }
        assert!(
            donor.active_seqs() == 0 && donor.suspended_seqs() == 0,
            "pool split requires an idle donor pool"
        );
        let plan = RankPlan::new(cfg, ranks);
        let quantizer = donor.quantizer_handle();
        let capacity = donor.capacity_pages() as usize;
        let host = donor.host_capacity_pages() as usize;
        let page_size = donor.page_size();
        let block_tokens = donor.block_tokens();
        let sharing = donor.prefix_sharing();
        let kernel = donor.kernel_mode();
        let pools: Vec<PagedKvPool> = (0..ranks)
            .map(|r| {
                let pages = chunk_range(r, capacity, ranks).len() as u32;
                assert!(
                    pages > 0,
                    "capacity {capacity} leaves rank {r} without pages"
                );
                let mut p = PagedKvPool::for_model_shard(
                    cfg,
                    quantizer.clone(),
                    pages,
                    page_size,
                    plan.kv_heads(r),
                );
                p.set_host_pages(chunk_range(r, host, ranks).len() as u32);
                p.set_block_tokens(block_tokens);
                p.set_prefix_sharing(sharing);
                p.set_kernel_mode(kernel);
                p
            })
            .collect();
        Self {
            plan,
            pools,
            peaks: vec![0; ranks],
        }
    }

    /// The ownership map.
    pub fn plan(&self) -> &RankPlan {
        &self.plan
    }

    /// Number of ranks.
    pub fn num_ranks(&self) -> usize {
        self.pools.len()
    }

    /// The lead (rank 0) shard — the one carrying fault injectors and
    /// answering rank-invariant queries.
    pub fn lead(&self) -> &PagedKvPool {
        &self.pools[0]
    }

    /// Mutable lead shard.
    pub fn lead_mut(&mut self) -> &mut PagedKvPool {
        &mut self.pools[0]
    }

    /// All rank shards, rank order.
    pub fn ranks(&self) -> &[PagedKvPool] {
        &self.pools
    }

    /// All rank shards, mutable.
    pub fn ranks_mut(&mut self) -> &mut [PagedKvPool] {
        &mut self.pools
    }

    /// Whether the shards store quantized streams (drives the forward
    /// pass's scale-sync accounting).
    pub(crate) fn quantized(&self) -> bool {
        self.pools[0].quantizer_handle().is_some()
    }

    /// Allocates a sequence on every rank, probing the prefix trie; the
    /// rank pools allocate in lockstep, so the ids and trie matches must
    /// agree (asserted — a divergence would mean the façade was bypassed).
    pub fn alloc_seq_with_prefix(&mut self, tokens: &[u32]) -> PrefixAlloc {
        let first = self.pools[0].alloc_seq_with_prefix(tokens);
        for p in &mut self.pools[1..] {
            let a = p.alloc_seq_with_prefix(tokens);
            assert_eq!(
                a.seq, first.seq,
                "rank pools allocate sequence ids in lockstep"
            );
            assert_eq!(
                a.matched_tokens, first.matched_tokens,
                "rank tries agree on shared prefixes"
            );
        }
        first
    }

    /// Trie probe (rank-invariant: every rank seals the same token
    /// blocks, only the stored bytes differ).
    pub fn probe_prefix(&self, tokens: &[u32]) -> usize {
        self.pools[0].probe_prefix(tokens)
    }

    /// Frees a live sequence on every rank; returns the total pages
    /// released across shards.
    pub fn free_seq(&mut self, seq: SeqId) -> Result<u32, PoolError> {
        self.release_on_all(|p| p.free_seq(seq))
    }

    /// Drops a suspended sequence's host pages on every rank.
    pub fn drop_suspended_seq(&mut self, seq: SeqId) -> Result<u32, PoolError> {
        self.release_on_all(|p| p.drop_suspended_seq(seq))
    }

    /// Runs one release on every rank and sums the pages it freed: the
    /// first error wins, but every rank is still torn down — containment
    /// over early exit.
    fn release_on_all(
        &mut self,
        mut release: impl FnMut(&mut PagedKvPool) -> Result<u32, PoolError>,
    ) -> Result<u32, PoolError> {
        let mut total = 0u32;
        let mut err = None;
        for p in &mut self.pools {
            match release(p) {
                Ok(n) => total += n,
                Err(e) => err = err.or(Some(e)),
            }
        }
        err.map_or(Ok(total), Err)
    }

    /// Suspends a sequence to the host tier **atomically across shards**:
    /// followers first, the lead shard last — the lead carries the fault
    /// injectors, so its verdict arrives while every follower can still
    /// be rolled back (resumed) without touching the fault schedule. On
    /// any failure the already-suspended shards are resumed and the error
    /// is returned; on success every shard is frozen and the summed
    /// receipt comes back.
    pub fn suspend_seq(&mut self, seq: SeqId) -> Result<SwapReceipt, PoolError> {
        let mut done: Vec<usize> = Vec::new();
        let mut total = SwapReceipt::default();
        for r in (1..self.pools.len()).chain([0]) {
            match self.pools[r].suspend_seq(seq) {
                Ok(receipt) => {
                    total.merge(receipt);
                    done.push(r);
                }
                Err(e) => {
                    for &d in &done {
                        self.pools[d]
                            .resume_seq(seq)
                            .expect("rolling back a follower suspend cannot fault");
                    }
                    return Err(e);
                }
            }
        }
        Ok(total)
    }

    /// Resumes a suspended sequence on every rank, lead shard first (its
    /// injectors get the only say before any follower thaws); follower
    /// resumes are headroom-pre-checked by the engine and fault-free by
    /// construction, so a follower failure rolls the resumed shards back
    /// to the host tier and surfaces the error.
    pub fn resume_seq(&mut self, seq: SeqId) -> Result<SwapReceipt, PoolError> {
        let mut done: Vec<usize> = Vec::new();
        let mut total = SwapReceipt::default();
        for r in 0..self.pools.len() {
            match self.pools[r].resume_seq(seq) {
                Ok(receipt) => {
                    total.merge(receipt);
                    done.push(r);
                }
                Err(e) => {
                    for &d in done.iter().rev() {
                        self.pools[d]
                            .suspend_seq(seq)
                            .expect("re-freezing a just-resumed shard cannot fail");
                    }
                    return Err(e);
                }
            }
        }
        Ok(total)
    }

    /// Device pages a suspended sequence needs on rank `r` to resume.
    pub fn suspended_seq_pages(&self, r: usize, seq: SeqId) -> u32 {
        self.pools[r].suspended_seq_pages(seq)
    }

    /// Exports a sequence from every rank as one [`KvTransfer`] per
    /// shard, in rank order — the send side of a cross-engine handoff.
    /// Export is teardown (each shard frees the sequence), so it probes
    /// the lead shard's liveness first and otherwise changes nothing;
    /// past that probe the per-rank exports are infallible.
    pub fn export_seq(&mut self, seq: SeqId) -> Result<Vec<KvTransfer>, PoolError> {
        if !self.pools[0].is_live(seq) {
            return Err(PoolError::UnknownSequence { seq });
        }
        Ok(self
            .pools
            .iter_mut()
            .map(|p| {
                p.export_seq(seq)
                    .expect("rank pools hold sequences in lockstep")
            })
            .collect())
    }

    /// Whether every rank can land its shard of `transfers` right now
    /// (the cluster's transfer clock polls this before committing).
    pub fn can_import(&self, transfers: &[KvTransfer]) -> Result<(), PoolError> {
        assert_eq!(
            transfers.len(),
            self.pools.len(),
            "a transfer carries one shard per rank"
        );
        for (p, t) in self.pools.iter().zip(transfers) {
            p.can_import(t)?;
        }
        Ok(())
    }

    /// Imports one [`KvTransfer`] per rank (produced by
    /// [`export_seq`](Self::export_seq) on a pool fleet with the same
    /// rank count), landing each shard in its rank's host tier under one
    /// lockstep sequence id. Every rank's capacity is pre-checked before
    /// any shard lands, so a rejection hands the transfers back untouched
    /// — there is no partial import to roll back.
    #[allow(clippy::type_complexity, clippy::result_large_err)]
    pub fn import_seq(
        &mut self,
        transfers: Vec<KvTransfer>,
    ) -> Result<(SeqId, SwapReceipt), (Vec<KvTransfer>, PoolError)> {
        if let Err(e) = self.can_import(&transfers) {
            return Err((transfers, e));
        }
        let mut total = SwapReceipt::default();
        let mut id = None;
        let mut pending = transfers.into_iter();
        for r in 0..self.pools.len() {
            let t = pending.next().expect("length asserted above");
            match self.pools[r].import_seq(t) {
                Ok((seq, receipt)) => {
                    match id {
                        None => id = Some(seq),
                        Some(first) => assert_eq!(
                            seq, first,
                            "rank pools assign imported sequence ids in lockstep"
                        ),
                    }
                    total.merge(receipt);
                }
                Err((t, e)) => {
                    // Only the lead shard carries fault injectors, and it
                    // imports first — no follower state to unwind, and the
                    // untouched shards hand straight back.
                    assert!(
                        r == 0 && id.is_none(),
                        "follower imports cannot fail past the capacity pre-check"
                    );
                    let mut back = vec![t];
                    back.extend(pending);
                    return Err((back, e));
                }
            }
        }
        Ok((id.expect("at least one rank"), total))
    }

    /// Installs a fault plan on the **lead shard only**: one logical
    /// operation polls the schedule once, exactly like the 1-rank engine,
    /// and the shard orderings above guarantee followers never see a
    /// half-applied operation.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        self.pools[0].install_faults(plan);
    }

    /// Lead-shard fault counters (followers have no injectors).
    pub fn fault_stats(&self) -> FaultStats {
        self.pools[0].fault_stats()
    }

    /// Requests a kernel mode on every rank; returns the mode actually
    /// installed (capability-gated identically on every shard — they wrap
    /// the same quantizer).
    pub fn set_kernel_mode(&mut self, kernel: KernelMode) -> KernelMode {
        let mut installed = kernel;
        for p in &mut self.pools {
            installed = p.set_kernel_mode(kernel);
        }
        installed
    }

    /// The installed attention read path.
    pub fn kernel_mode(&self) -> KernelMode {
        self.pools[0].kernel_mode()
    }

    /// Prefix-cache counters (lead-shard view; hit/token/row counts are
    /// rank-invariant, byte counters are the lead shard's slice).
    pub fn prefix_stats(&self) -> PrefixStats {
        self.pools[0].prefix_stats()
    }

    /// Pages held by sealed shared blocks, summed across shards.
    pub fn shared_block_pages(&self) -> u32 {
        self.pools.iter().map(|p| p.shared_block_pages()).sum()
    }

    /// Total device capacity across shards.
    pub fn capacity_pages(&self) -> u32 {
        self.pools.iter().map(|p| p.capacity_pages()).sum()
    }

    /// Total free device pages across shards.
    pub fn free_pages(&self) -> u32 {
        self.pools.iter().map(|p| p.free_pages()).sum()
    }

    /// Pages currently allocated across all shards.
    pub fn pages_in_use(&self) -> u32 {
        self.pools
            .iter()
            .map(|p| p.capacity_pages() - p.free_pages())
            .sum()
    }

    /// KV read-path traffic summed across shards.
    pub fn kv_read_stats(&self) -> KvReadStats {
        let mut total = KvReadStats::default();
        for p in &self.pools {
            total += p.kv_read_stats();
        }
        total
    }

    /// Folds the current per-rank page occupancy into the running peaks
    /// (called once per engine iteration, after the forward pass).
    pub fn note_page_peaks(&mut self) {
        for (p, peak) in self.pools.iter().zip(&mut self.peaks) {
            *peak = (*peak).max(p.capacity_pages() - p.free_pages());
        }
    }

    /// Peak allocated pages per rank over the run so far.
    pub fn page_peaks(&self) -> &[u32] {
        &self.peaks
    }
}

impl std::fmt::Debug for RankedPools {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RankedPools")
            .field("ranks", &self.pools.len())
            .field("free_pages", &self.free_pages())
            .field("peaks", &self.peaks)
            .finish()
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
/// rows every pool shard appends).
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
    use crate::model::{BatchStep, Model};
    use crate::pool::PoolBatchView;
    use crate::sampling::sample_greedy;
    use oaken_core::{KvKind, KvQuantizer, OakenConfig, OakenQuantizer, OfflineProfiler};
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

    /// One engine-style forward over `pools` (as many ranks as it holds),
    /// asserting the fault-free run poisons nothing.
    fn forward(
        model: &Model,
        rt: &Runtime,
        comm: &mut Comm,
        pools: &mut RankedPools,
        seqs: &[SeqId],
        steps: &[BatchStep],
    ) -> Vec<Vec<f32>> {
        let plan = pools.plan().clone();
        let mut view = PoolBatchView::new(pools, seqs);
        let logits = model.forward_batch_sharded(rt, &plan, comm, &mut view, steps, None);
        assert!(
            view.take_poisoned().is_empty(),
            "fault-free run poisons nothing"
        );
        logits
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
        let mut one = RankedPools::single(cfg, donor());
        let mut one_comm = Comm::new(1);
        let mut pools = RankedPools::split(cfg, donor(), ranks);
        let mut comm = Comm::new(ranks);

        let alloc2 = |p: &mut RankedPools| {
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
        let mut pools = RankedPools::split(&cfg, donor, 2);
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
            let mut pools = RankedPools::split(&cfg, donor, 2);
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

    #[test]
    fn suspend_and_resume_stay_atomic_across_shards() {
        let cfg = dense_cfg();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        let model = Model::synthetic(cfg.clone(), 42);
        let rt = Runtime::serial();
        let donor = PagedKvPool::for_model(&cfg, Some(q), 256, 4096);
        let mut pools = RankedPools::split(&cfg, donor, 3);
        let mut comm = Comm::new(3);
        let seqs = vec![pools.alloc_seq_with_prefix(&[]).seq];

        let mut feed = 3u32;
        for pos in 0..4usize {
            let steps = vec![BatchStep {
                slot: 0,
                pos,
                token: feed,
            }];
            let logits = forward(&model, &rt, &mut comm, &mut pools, &seqs, &steps);
            feed = sample_greedy(&logits[0]);
        }
        let before: Vec<Vec<u32>> = (0..3)
            .map(|r| bits(pools.ranks_mut()[r].keys(seqs[0], 0)))
            .collect();

        let receipt = pools.suspend_seq(seqs[0]).expect("suspend fits host tiers");
        assert!(receipt.bytes > 0);
        for p in pools.ranks() {
            assert!(p.is_suspended(seqs[0]), "every shard froze");
        }
        let back = pools.resume_seq(seqs[0]).expect("resume fits device");
        assert_eq!(back.bytes, receipt.bytes, "round trip moves the same bytes");
        for (r, want) in before.iter().enumerate() {
            assert_eq!(
                &bits(pools.ranks_mut()[r].keys(seqs[0], 0)),
                want,
                "rank {r} resumed bit-exactly"
            );
        }

        // The next forward continues bit-exactly from the thawed state.
        let steps = vec![BatchStep {
            slot: 0,
            pos: 4,
            token: feed,
        }];
        forward(&model, &rt, &mut comm, &mut pools, &seqs, &steps);
        assert!(pools.free_seq(seqs[0]).is_ok());
        assert_eq!(pools.free_pages(), pools.capacity_pages());
    }

    #[test]
    fn page_peaks_track_per_rank_occupancy() {
        let cfg = dense_cfg();
        let model = Model::synthetic(cfg.clone(), 42);
        let rt = Runtime::serial();
        let donor = PagedKvPool::for_model(&cfg, None, 90, 4096);
        let mut pools = RankedPools::split(&cfg, donor, 4);
        let mut comm = Comm::new(4);
        // Uneven capacity split: 90 pages over 4 ranks → 23/23/22/22.
        let caps: Vec<u32> = pools.ranks().iter().map(|p| p.capacity_pages()).collect();
        assert_eq!(caps, vec![23, 23, 22, 22]);
        let seqs = vec![pools.alloc_seq_with_prefix(&[]).seq];
        for pos in 0..3usize {
            let steps = vec![BatchStep {
                slot: 0,
                pos,
                token: 9,
            }];
            forward(&model, &rt, &mut comm, &mut pools, &seqs, &steps);
            pools.note_page_peaks();
        }
        assert_eq!(pools.page_peaks().len(), 4);
        assert!(
            pools.page_peaks().iter().all(|&p| p > 0),
            "every rank allocated pages: {:?}",
            pools.page_peaks()
        );
    }
}
