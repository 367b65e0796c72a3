//! The decoder-only transformer: synthetic construction, and token-by-token
//! inference sessions on a one-sequence paged pool (exact f32 or any
//! quantizer) with KV observation hooks for offline profiling.

use crate::attention::{
    attend_exact_run_into, attend_segments_fused_into, tile_pieces, with_thread_scratch,
    AttentionShape, KvRead, Segment, QUERY_TILE,
};
use crate::cache::{BatchKvCache, KernelMode, SeqStore};
use crate::config::{ModelConfig, Positional};
use crate::ffn::{DenseFfn, FfnWeights};
use crate::pool::ShardReads;
use crate::ranks::{as_refs, concat_shards, gather, sharded_matvec, RankPlan, RowShards};
use crate::synth::{self, RowTable, SynthParams};
use oaken_core::{KvKind, KvQuantizer};
use oaken_runtime::{chunk_range, Comm, Runtime};
use oaken_tensor::norm::{layernorm, rmsnorm, NormKind};
use oaken_tensor::rope::{rope_row, rotate_by, DEFAULT_THETA};
use oaken_tensor::Tensor;
#[cfg(debug_assertions)]
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Weights of one decoder layer.
#[derive(Debug, Clone)]
pub struct LayerWeights {
    /// Query projection `[d × d]`.
    pub wq: Tensor,
    /// Key projection `[kv_dim × d]`.
    pub wk: Tensor,
    /// Value projection `[kv_dim × d]`.
    pub wv: Tensor,
    /// Output projection `[d × d]`.
    pub wo: Tensor,
    /// Pre-attention norm gain.
    pub attn_norm_w: Vec<f32>,
    /// Pre-attention norm bias (LayerNorm models).
    pub attn_norm_b: Option<Vec<f32>>,
    /// Pre-FFN norm gain.
    pub ffn_norm_w: Vec<f32>,
    /// Pre-FFN norm bias (LayerNorm models).
    pub ffn_norm_b: Option<Vec<f32>>,
    /// Feed-forward weights.
    pub ffn: FfnWeights,
}

/// A complete decoder-only transformer with synthetic weights.
#[derive(Debug, Clone)]
pub struct Model {
    config: ModelConfig,
    embed: RowTable,
    pos_embed: Option<RowTable>,
    layers: Vec<LayerWeights>,
    final_norm_w: Vec<f32>,
    final_norm_b: Option<Vec<f32>>,
    lm_head: Tensor,
}

impl Model {
    /// Builds a model with synthetic weights from `seed`, using the default
    /// [`SynthParams`] calibrated to the paper's KV-distribution
    /// observations.
    pub fn synthetic(config: ModelConfig, seed: u64) -> Self {
        Self::synthetic_with(config, seed, &SynthParams::default())
    }

    /// Builds a model with explicit synthesis parameters.
    pub fn synthetic_with(config: ModelConfig, seed: u64, params: &SynthParams) -> Self {
        let d = config.d_model;
        let kv_dim = config.kv_dim();
        let mut stream = 0u64;
        fn next(seed: u64, stream: &mut u64, rows: usize, cols: usize, scale: f32) -> Tensor {
            *stream += 1;
            synth::dense(&mut synth::stream_rng(seed, *stream), rows, cols, scale)
        }

        let embed = synth::embedding(&mut synth::stream_rng(seed, 9_000), config.vocab_size, d);
        let pos_embed = match config.positional {
            Positional::Learned => Some(synth::table(
                &mut synth::stream_rng(seed, 9_001),
                config.max_seq_len,
                d,
                0.3,
            )),
            Positional::Rope => None,
        };

        let mut layers = Vec::with_capacity(config.num_layers);
        for l in 0..config.num_layers {
            let scale = synth::layer_scale(l, config.num_layers);
            stream += 1;
            let wk = synth::kv_projection(
                &mut synth::stream_rng(seed, stream),
                kv_dim,
                d,
                scale,
                params,
            );
            stream += 1;
            let value_params = SynthParams {
                outlier_gain: (params.outlier_gain.0 * 0.6, params.outlier_gain.1 * 0.6),
                ..*params
            };
            let wv = synth::kv_projection(
                &mut synth::stream_rng(seed, stream),
                kv_dim,
                d,
                scale * 0.8,
                &value_params,
            );
            let bias = |dim: usize| match config.norm {
                NormKind::Layer => Some(vec![0.0f32; dim]),
                NormKind::Rms => None,
            };
            let ffn = Self::build_ffn(&config, seed, &mut stream);
            layers.push(LayerWeights {
                wq: next(seed, &mut stream, d, d, 1.0),
                wk,
                wv,
                wo: next(seed, &mut stream, d, d, 1.0),
                attn_norm_w: vec![1.0; d],
                attn_norm_b: bias(d),
                ffn_norm_w: vec![1.0; d],
                ffn_norm_b: bias(d),
                ffn,
            });
        }

        let final_norm_b = match config.norm {
            NormKind::Layer => Some(vec![0.0f32; d]),
            NormKind::Rms => None,
        };
        // Slightly sharpened LM head so synthetic generations are
        // predictable enough for perplexity to be a sensitive metric.
        let lm_head = next(seed, &mut stream, config.vocab_size, d, 2.0);
        Self {
            final_norm_w: vec![1.0; d],
            final_norm_b,
            embed,
            pos_embed,
            layers,
            lm_head,
            config,
        }
    }

    fn build_ffn(config: &ModelConfig, seed: u64, stream: &mut u64) -> FfnWeights {
        let d = config.d_model;
        let f = config.ffn_hidden;
        let mut next = |rows: usize, cols: usize| {
            *stream += 1;
            synth::dense(&mut synth::stream_rng(seed, *stream), rows, cols, 1.0)
        };
        let mut dense_ffn = |gated: bool| DenseFfn {
            w_gate: gated.then(|| next(f, d)),
            w_up: next(f, d),
            w_down: next(d, f),
        };
        match config.moe {
            None => FfnWeights::Dense(dense_ffn(config.gated_ffn())),
            Some(moe) => {
                let experts = (0..moe.num_experts)
                    .map(|_| dense_ffn(config.gated_ffn()))
                    .collect();
                FfnWeights::Moe {
                    router: next(moe.num_experts, d),
                    experts,
                    top_k: moe.top_k,
                }
            }
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Per-layer weights (read-only).
    pub fn layers(&self) -> &[LayerWeights] {
        &self.layers
    }

    /// Token embedding table `[vocab × d]` (read-only).
    pub fn embed(&self) -> &RowTable {
        &self.embed
    }

    /// Learned positional embedding, when the model uses one.
    pub fn pos_embed(&self) -> Option<&RowTable> {
        self.pos_embed.as_ref()
    }

    /// Final-norm gain and bias.
    pub fn final_norm(&self) -> (&[f32], Option<&Vec<f32>>) {
        (&self.final_norm_w, self.final_norm_b.as_ref())
    }

    /// LM head `[vocab × d]` (read-only).
    pub fn lm_head(&self) -> &Tensor {
        &self.lm_head
    }

    /// Starts an inference session on a one-sequence
    /// [`PagedKvPool`](crate::PagedKvPool) — the store the serving engine
    /// runs on — holding exact f32 rows for `quantizer = None`, else
    /// `quantizer`'s: streamed, or re-quantized on read when it has no
    /// row stream (KIVI, KVQuant).
    pub fn session(&self, quantizer: Option<Arc<dyn KvQuantizer>>) -> Session<'_> {
        Session {
            model: self,
            store: SeqStore::new(&self.config, quantizer),
            pos: 0,
            observer: None,
        }
    }

    /// The model's norm of each given activation row (replicated on every
    /// rank).
    fn norms<'x>(
        &self,
        xs: impl Iterator<Item = &'x Vec<f32>>,
        w: &[f32],
        b: Option<&Vec<f32>>,
    ) -> Vec<Vec<f32>> {
        let norm = |x: &Vec<f32>| match self.config.norm {
            NormKind::Rms => rmsnorm(x, w, 1e-5),
            NormKind::Layer => layernorm(x, w, b.map(|v| v.as_slice()).unwrap_or(&[]), 1e-5),
        };
        xs.map(norm).collect()
    }

    /// Advances a *batch* of sequence steps and returns the next-token
    /// logits per step, in step order.
    ///
    /// This is the serving engine's iteration primitive: each step names a
    /// batch `slot` of `cache`, the sequence's current position, and the
    /// token to feed. Execution is **layer-major** — all steps pass
    /// through decoder layer `l` before any touches layer `l+1` — so each
    /// layer's weight matrices are streamed from memory once per iteration
    /// and reused across the whole batch, the locality that makes batched
    /// decode profitable (and the software analogue of §5.3's token-level
    /// scheduling, where one core's weight fetch serves many requests).
    ///
    /// A slot may appear in **multiple steps** with consecutive positions
    /// — a *prompt chunk* (Sarathi-style chunked prefill). Within a layer
    /// the chunk's K/V rows are appended first and step `j` then attends
    /// the rows of steps `i <= j` only: causal attention over the chunk is
    /// exactly the arithmetic of feeding the same tokens one iteration at
    /// a time, and the logits of every step are bit-identical to the
    /// token-by-token schedule in both kernel modes (enforced by
    /// `chunked_prefill_matches_single_steps_bitwise` and the tile
    /// properties in `tests/tile_props.rs`).
    ///
    /// Per-sequence arithmetic is *identical* to the single-sequence path:
    /// sequences never mix activations, so a batch of one is bit-exact
    /// with [`Session::advance`], and any interleaving of sequences across
    /// iterations leaves each sequence's logits unchanged (enforced by the
    /// engine's property tests).
    ///
    /// `observer` (if any) sees every freshly generated K/V vector as
    /// `(step_index, layer, kind, vector)`.
    ///
    /// Runs serially on one shard with every step live: the thin entry
    /// point of [`Model::forward_batch_sharded`] that Sessions and
    /// baselines use.
    ///
    /// # Panics
    ///
    /// Panics if any step's token is outside the vocabulary or its
    /// position exceeds `max_seq_len`; debug builds additionally check
    /// that a slot's steps have strictly consecutive positions.
    pub fn forward_batch(
        &self,
        cache: &mut dyn BatchKvCache,
        steps: &[BatchStep],
        observer: Option<&mut BatchKvObserver<'_>>,
    ) -> Vec<Vec<f32>> {
        self.forward_batch_on(&Runtime::serial(), cache, steps, observer)
    }

    /// [`Model::forward_batch`] with the iteration's work sharded across
    /// `rt`: [`Model::forward_batch_sharded`] on a one-shard plan, whose
    /// communicator accounts nothing — bit-exact with the serial pass for
    /// every thread count (`rt = Runtime::serial()` *is* the serial pass).
    ///
    /// # Panics
    ///
    /// Same contract as [`Model::forward_batch`].
    pub fn forward_batch_on(
        &self,
        rt: &Runtime,
        cache: &mut dyn BatchKvCache,
        steps: &[BatchStep],
        observer: Option<&mut BatchKvObserver<'_>>,
    ) -> Vec<Vec<f32>> {
        let plan = RankPlan::new(&self.config, 1);
        self.forward_batch_sharded(rt, &plan, &mut Comm::new(1), cache, steps, observer)
    }

    /// The batched forward pass — the only one — executed as
    /// `plan.ranks()` tensor-parallel ranks on `rt`'s threads. `cache`
    /// holds one KV shard per rank ([`BatchKvCache::read_runs`] serves
    /// them in rank order); a single-shard cache with a one-rank plan is
    /// the unsharded engine, and the logits are bit-identical for every
    /// rank and thread count.
    ///
    /// `batch` is the steps plus which of them are **live** — have their
    /// logits read ([`StepBatch`]; a plain step slice means all of them).
    /// Returned are the live steps' logits, in step order. A pass computes
    /// only what a live step's logits or a later iteration can read, so
    /// every decoder layer is two stages over the rows that need them:
    ///
    /// * the **KV stage**, over *all* steps — attention norm → `Wk`/`Wv` →
    ///   RoPE on K → [`BatchKvCache::append`] per run of a slot's steps:
    ///   the cache rows are the pass's lasting product and every step
    ///   leaves its own;
    /// * the **tail stage**, over the steps whose output is still read —
    ///   `Wq` → RoPE on Q → attention, each query under its own causal
    ///   limit → `Wo` → FFN. Below the last layer that is every step (the
    ///   next layer's K/V rows are made from its output); on the **last
    ///   layer** it is the live steps alone, and the final norm + LM head
    ///   run over the same rows.
    ///
    /// A dead step therefore ends at its last-layer K/V append. The saving
    /// is the last layer's tail — `1 / num_layers` of the per-layer tail
    /// work — plus the LM head, per dead step (an unsampled prompt step of
    /// a serving chunk). No bit depends on who is live: a weight sweep's
    /// element is bit-identical at every input width and a query's
    /// attention output is a function of the query and the rows under its
    /// limit alone (`tests/liveness_props.rs`).
    ///
    /// Work is partitioned by ownership, every accumulation chain lives
    /// inside one task, and `comm` merges what ranks own disjointly:
    ///
    /// * **weight sweeps** — every projection runs through
    ///   [`Tensor::matvec_batch_shards`], tasks over `(rank, thread
    ///   sub-chunk of the rank's rows)`. `Wq`/`Wk`/`Wv` rows follow head
    ///   ownership and stay rank-local; `Wo`, the FFN matrices and the LM
    ///   head split evenly and gather through one all-reduce each;
    /// * **quantize + append** — serial, on the calling thread: one
    ///   [`BatchKvCache::append`] per slot run and layer with full-width
    ///   rows, each encoded once (Oaken's scales are whole-row min/max, which a
    ///   rank group pays as a per-row scale sync, accounted here); each
    ///   shard stores its own heads' channels of the encoding, and the
    ///   pool's MMU stays a single writer;
    /// * **attention** — head-local: one task per `(rank, slot run, query
    ///   tile, KV-head range)`, each reading its rank's shard in place —
    ///   f32 views in [`KernelMode::Exact`], one sweep over the *encoded*
    ///   rows per tile in [`KernelMode::Fused`] — and one all-reduce
    ///   gathers the ranks' disjoint query-head slices.
    ///
    /// Per decoder layer that is four all-reduces (attention gather,
    /// `Wo`, FFN hidden, FFN down; MoE layers pay the router merge plus
    /// two per routed expert instead), plus one for the logits, each
    /// carrying the stage's rows: a tail stage (or LM head) over zero
    /// rows launches no collective and accounts none. At one rank every
    /// "gather" is the owner's buffer itself and `comm` accounts zero.
    ///
    /// When the cache's views are *not* append-only (the KIVI/KVQuant
    /// recompute fallback re-derives scales over the whole prefix on
    /// read), each step appends and attends before the next one appends —
    /// the same two stages, one step at a time. An observer sees every
    /// step's rows of a layer, in step order, before they are appended,
    /// and changes no bit.
    ///
    /// # Panics
    ///
    /// Same contract as [`Model::forward_batch`]; also panics if `plan`,
    /// `comm` and `cache` disagree on the shard count.
    pub fn forward_batch_sharded<'s>(
        &self,
        rt: &Runtime,
        plan: &RankPlan,
        comm: &mut Comm,
        cache: &mut dyn BatchKvCache,
        batch: impl Into<StepBatch<'s>>,
        observer: Option<&mut BatchKvObserver<'_>>,
    ) -> Vec<Vec<f32>> {
        let StepBatch { steps, live } = batch.into();
        let cfg = &self.config;
        let n = plan.ranks();
        assert_eq!(n, comm.num_ranks(), "plan and comm agree on rank count");
        for s in steps {
            assert!(
                (s.token as usize) < cfg.vocab_size,
                "token {} outside vocabulary {}",
                s.token,
                cfg.vocab_size
            );
            assert!(
                s.pos < cfg.max_seq_len,
                "sequence exceeds max_seq_len {}",
                cfg.max_seq_len
            );
        }
        #[cfg(debug_assertions)]
        {
            let mut last: HashMap<usize, usize> = HashMap::new();
            for s in steps {
                if let Some(prev) = last.insert(s.slot, s.pos) {
                    debug_assert_eq!(
                        s.pos,
                        prev + 1,
                        "slot {}: chunked steps must have consecutive positions",
                        s.slot
                    );
                }
            }
        }
        // Append-then-attend batching is only bit-exact when appends never
        // rewrite materialized view rows. Either way the stages run over
        // spans of steps: the whole batch, or one step.
        let interleave = !cache.append_only_views();
        let width = if interleave { 1 } else { steps.len().max(1) };
        let spans: Vec<Range<usize>> = (0..steps.len())
            .step_by(width)
            .map(|i| i..(i + width).min(steps.len()))
            .collect();

        // Embedding and norms are replicated on every rank.
        let mut xs: Vec<Vec<f32>> = steps
            .iter()
            .map(|s| {
                let mut x = self.embed.row(s.token as usize).to_vec();
                if let Some(pe) = &self.pos_embed {
                    for (xi, pi) in x.iter_mut().zip(pe.row(s.pos)) {
                        *xi += pi;
                    }
                }
                x
            })
            .collect();

        let mut pass = Pass {
            model: self,
            rt,
            comm,
            cache,
            observer,
            q_rows: (0..n).map(|r| plan.q_channels(r)).collect(),
            kv_rows: (0..n).map(|r| plan.kv_channels(r)).collect(),
            shapes: (0..n)
                .map(|r| plan.attention_shape(r, cfg.sliding_window))
                .collect(),
            slots: steps.iter().map(|s| s.slot).collect(),
            // One `(sin, cos)` row per step position serves every head of
            // every layer; none without rope.
            rope: match cfg.positional {
                Positional::Rope => steps
                    .iter()
                    .map(|s| rope_row(cfg.head_dim(), s.pos, DEFAULT_THETA))
                    .collect(),
                Positional::Learned => Vec::new(),
            },
        };

        let all: Vec<usize> = (0..steps.len()).collect();
        let live = live.unwrap_or(&all);
        for l in 0..self.layers.len() {
            // Every step's output feeds the next layer's K/V rows; past
            // the last layer only the logits read it.
            let read = if l + 1 == self.layers.len() {
                live
            } else {
                &all
            };
            for span in &spans {
                let hs = pass.kv_stage(l, &xs, span.clone());
                let within = |i: usize| read.partition_point(|&r| r < i);
                let rows = &read[within(span.start)..within(span.end)];
                pass.tail_stage(l, &mut xs, &hs, span.clone(), rows);
            }
        }

        if live.is_empty() {
            return Vec::new();
        }
        let hs = self.norms(
            live.iter().map(|&i| &xs[i]),
            &self.final_norm_w,
            self.final_norm_b.as_ref(),
        );
        sharded_matvec(rt, pass.comm, &self.lm_head, &as_refs(&hs))
    }
}

/// What one forward pass holds across its layers and stages: the model,
/// where it runs, the cache it fills and reads, and the per-rank and
/// per-step tables every stage indexes.
struct Pass<'a, 'o> {
    model: &'a Model,
    rt: &'a Runtime,
    comm: &'a mut Comm,
    cache: &'a mut dyn BatchKvCache,
    observer: Option<&'a mut BatchKvObserver<'o>>,
    /// Per rank: the query and K/V channels it owns, and its head counts.
    q_rows: Vec<Range<usize>>,
    kv_rows: Vec<Range<usize>>,
    shapes: Vec<AttentionShape>,
    /// Per step: its batch slot.
    slots: Vec<usize>,
    /// Per step: the `(sin, cos)` row of its position; empty without rope.
    rope: Vec<Vec<(f32, f32)>>,
}

impl Pass<'_, '_> {
    /// Rotates a full-width or rank-local row of `step` head by head —
    /// rope is head-local, so that is the full-width rotation either way.
    fn rotate(&self, step: usize, row: &mut [f32]) {
        if let Some(angles) = self.rope.get(step) {
            for head in row.chunks_mut(self.model.config.head_dim()) {
                rotate_by(head, angles);
            }
        }
    }

    /// The **KV stage** of layer `l` over the steps `span`: attention norm
    /// → `Wk`/`Wv` → RoPE on K → append. Returns the normed rows, which
    /// the tail stage projects its queries from.
    fn kv_stage(&mut self, l: usize, xs: &[Vec<f32>], span: Range<usize>) -> Vec<Vec<f32>> {
        let lw = &self.model.layers[l];
        let hs = self.model.norms(
            xs[span.clone()].iter(),
            &lw.attn_norm_w,
            lw.attn_norm_b.as_ref(),
        );
        // One weight sweep per projection serves the whole span. K/V rows
        // follow head ownership, and each full-width row is encoded once:
        // whole-row min/max scales need global agreement, which a real
        // rank group pays as a tiny per-row scale sync; the channel
        // payloads themselves stay rank-local in the shards.
        let href = as_refs(&hs);
        let project = |w: &Tensor, what| {
            concat_shards(
                w.matvec_batch_shards(self.rt, &href, &self.kv_rows)
                    .expect(what),
            )
        };
        let mut ks = project(&lw.wk, "Wk shape");
        let vs = project(&lw.wv, "Wv shape");
        if self.cache.syncs_row_scales() {
            // One (min, max) pair per appended K and V row.
            self.comm.account_sync(2 * span.len() as u64, 2);
        }
        for (i, k) in span.clone().zip(&mut ks) {
            self.rotate(i, k);
        }
        if let Some(obs) = self.observer.as_deref_mut() {
            for (i, (k, v)) in span.clone().zip(ks.iter().zip(&vs)) {
                obs(i, l, KvKind::Key, k);
                obs(i, l, KvKind::Value, v);
            }
        }
        // One run per slot: a prompt chunk enters the cache at once.
        let mut at = 0;
        for run in self.slots[span].chunk_by(|a, b| a == b) {
            let steps = at..at + run.len();
            self.cache.append(run[0], l, &ks[steps.clone()], &vs[steps]);
            at += run.len();
        }
        hs
    }

    /// The **tail stage** of layer `l` over `rows` — the steps of `span`
    /// whose output is still read, `hs` being the span's normed rows from
    /// the KV stage, which has appended the whole span: `Wq` → RoPE on Q
    /// → attention → `Wo` → FFN, added into `xs[rows]`. Zero rows cost
    /// nothing: no sweep, no read of the cache, no collective.
    fn tail_stage(
        &mut self,
        l: usize,
        xs: &mut [Vec<f32>],
        hs: &[Vec<f32>],
        span: Range<usize>,
        rows: &[usize],
    ) {
        if rows.is_empty() {
            return;
        }
        let lw = &self.model.layers[l];
        // Query rows follow head ownership and stay rank-local — only the
        // attention outputs are gathered.
        let href: Vec<&[f32]> = rows.iter().map(|&i| &hs[i - span.start][..]).collect();
        let mut qs = lw
            .wq
            .matvec_batch_shards(self.rt, &href, &self.q_rows)
            .expect("Wq shape");
        for part in &mut qs {
            for (&i, q) in rows.iter().zip(part) {
                self.rotate(i, q);
            }
        }
        let atts = self.attend_appended(l, span, rows, &qs);
        let atts = gather(self.comm, atts, &self.q_rows);
        let outs = sharded_matvec(self.rt, self.comm, &lw.wo, &as_refs(&atts));
        add_rows(xs, rows, outs);

        // FFN block.
        let hs = self.model.norms(
            rows.iter().map(|&i| &xs[i]),
            &lw.ffn_norm_w,
            lw.ffn_norm_b.as_ref(),
        );
        let act = self.model.config.activation;
        let outs = lw
            .ffn
            .forward_sharded(self.rt, self.comm, &as_refs(&hs), act);
        add_rows(xs, rows, outs);
    }

    /// Attention of the steps `rows` of `span` (rank `r`'s query of step
    /// `rows[k]` being `qs[r][k]`) against layer `l` of the cache, which
    /// already holds the K/V rows of the whole span: per rank and `k`, the
    /// step's context vector.
    fn attend_appended(
        &mut self,
        l: usize,
        span: Range<usize>,
        rows: &[usize],
        qs: &RowShards,
    ) -> RowShards {
        let cache = &mut *self.cache;
        let runs = StepRuns::new(&self.slots, span, rows, |slot| cache.seq_len(slot, l));
        let reads = cache.read_runs(l, &runs.spec());
        assert_eq!(
            reads.len(),
            self.shapes.len(),
            "one read set per rank shard"
        );
        let shards: Vec<AttendShard<'_>> = reads
            .into_iter()
            .zip(self.shapes.iter().zip(qs))
            .map(|(reads, (&shape, qs))| AttendShard { shape, qs, reads })
            .collect();
        attend_runs(self.rt, &runs, &shards)
    }
}

/// The residual connection: `xs[rows[k]] += ys[k]`, elementwise.
fn add_rows(xs: &mut [Vec<f32>], rows: &[usize], ys: Vec<Vec<f32>>) {
    for (&i, y) in rows.iter().zip(ys) {
        for (xi, yi) in xs[i].iter_mut().zip(y) {
            *xi += yi;
        }
    }
}

/// The attending steps of one stage grouped into per-slot **runs**: a
/// slot's steps (consecutive positions — a prompt chunk, or a lone decode
/// step) are served together, their K/V rows being the newest the slot
/// holds.
struct StepRuns {
    /// The attending steps — as indices `k` into the stage's `rows` —
    /// stably grouped by slot.
    order: Vec<usize>,
    /// Per run with an attending step: the slot and its span of `order` /
    /// `limits`.
    runs: Vec<(usize, Range<usize>)>,
    /// Rows visible to step `order[k]`: everything its slot held once the
    /// step's own row was appended.
    limits: Vec<usize>,
}

impl StepRuns {
    /// Groups the steps `rows ⊆ span` (ascending) by their slot in `slots`
    /// (one entry per step of the pass), **after** the whole span's rows
    /// were appended: `len_of(slot)` is the slot's length now, so the
    /// `j`-th of a slot's `n` steps in `span` sees all but the last
    /// `n - 1 - j` rows, attending or not.
    ///
    /// A slot's attending steps must be its **newest** — a suffix of its
    /// run, the shape [`BatchKvCache::read_runs`] accounts.
    fn new(
        slots: &[usize],
        span: Range<usize>,
        rows: &[usize],
        len_of: impl Fn(usize) -> usize,
    ) -> Self {
        let mut by_slot: Vec<usize> = span.collect();
        by_slot.sort_by_key(|&i| slots[i]);
        let mut order = Vec::with_capacity(rows.len());
        let mut limits = Vec::with_capacity(rows.len());
        let mut runs: Vec<(usize, Range<usize>)> = Vec::new();
        for run in by_slot.chunk_by(|&a, &b| slots[a] == slots[b]) {
            let (slot, from) = (slots[run[0]], order.len());
            let len = len_of(slot);
            for (j, i) in run.iter().enumerate() {
                if let Ok(k) = rows.binary_search(i) {
                    order.push(k);
                    limits.push(len - (run.len() - 1 - j));
                }
            }
            let attending = order.len() - from;
            if attending > 0 {
                debug_assert_eq!(
                    rows.binary_search(&run[run.len() - attending]),
                    Ok(order[from]),
                    "slot {slot}: the attending steps of a run must be its newest"
                );
                runs.push((slot, from..order.len()));
            }
        }
        Self {
            order,
            runs,
            limits,
        }
    }

    /// `(slot, queries)` per run — the argument of
    /// [`BatchKvCache::read_runs`].
    fn spec(&self) -> Vec<(usize, usize)> {
        self.runs.iter().map(|(s, span)| (*s, span.len())).collect()
    }

    /// Positions `tile` of the concatenated steps of the runs `group`, run
    /// by run: each run's index and its steps' span of `order` / `limits`.
    fn pieces<'s>(
        &'s self,
        group: &'s [usize],
        tile: Range<usize>,
    ) -> impl Iterator<Item = (usize, Range<usize>)> + 's {
        let lens = group.iter().map(|&r| self.runs[r].1.len());
        tile_pieces(lens, tile).map(|(j, steps)| {
            let from = self.runs[group[j]].1.start;
            (group[j], from + steps.start..from + steps.end)
        })
    }
}

/// One rank's head-local shard of a layer's attention (the whole model
/// at one rank).
struct AttendShard<'a> {
    /// The rank's own head counts.
    shape: AttentionShape,
    /// Per attending step, the rank's query vector (`shape.q_dim()` wide).
    qs: &'a [Vec<f32>],
    /// Per run, what the rank's cache shard serves for the layer, and the
    /// runs grouped by the trie blocks they share.
    reads: ShardReads<'a>,
}

/// Attention of every attending step against every shard: one task per
/// `(shard, group, query tile, KV-head range)` on `rt`, each reading the
/// cache in place through its runs' [`KvRead`]s. A group is the runs whose
/// sequences share prefix-trie blocks, a tile up to [`QUERY_TILE`] of
/// their steps, and the fused kernel decodes the shared rows once for all
/// of a tile's runs. Returns, per shard and attending step, the
/// `shape.q_dim()`-wide context vector.
///
/// Every (step, head) output is a function of that step's query and the
/// rows below its limit alone (the exact kernels trivially, the fused
/// kernel by its width-invariance contract), so neither the grouping into
/// tiles, nor the schedule, nor which other steps attend is observable in
/// the bits.
fn attend_runs(rt: &Runtime, runs: &StepRuns, shards: &[AttendShard<'_>]) -> RowShards {
    // Head ranges: one per thread that could take one, so the serial pass
    // decodes each row once for all of a shard's heads.
    let mut tasks = Vec::new();
    for (s, shard) in shards.iter().enumerate() {
        let nk = shard.shape.num_kv_heads;
        let parts = rt.threads().min(nk).max(1);
        for (group, shared) in shard.reads.groups() {
            let steps: usize = group.iter().map(|&r| runs.runs[r].1.len()).sum();
            for tile in (0..steps).step_by(QUERY_TILE) {
                let tile = tile..(tile + QUERY_TILE).min(steps);
                let task = |p| (s, group, shared, tile.clone(), chunk_range(p, nk, parts));
                tasks.extend((0..parts).map(task));
            }
        }
    }
    let outputs = rt.map(tasks.len(), |t| {
        let (s, group, shared, tile, heads) = &tasks[t];
        let shard = &shards[*s];
        let gw = shard.shape.group_size().max(1) * shard.shape.head_dim;
        let mut qs: Vec<&[f32]> = Vec::with_capacity(tile.len());
        let steps = runs.pieces(group, tile.clone());
        qs.extend(
            steps
                .flat_map(|(_, steps)| &runs.order[steps])
                .map(|&k| &shard.qs[k][..]),
        );
        let mut out = vec![0.0f32; qs.len() * heads.len() * gw];
        let segment = |(r, steps): (usize, Range<usize>)| {
            let KvRead::Fused { keys, values } = shard.reads.reads[r] else {
                unreachable!("a group of several runs reads fused")
            };
            let queries = steps.len();
            Segment {
                queries,
                keys,
                values,
            }
        };
        let (shape, heads) = (&shard.shape, heads.clone());
        with_thread_scratch(|scratch| match (*group, shard.reads.reads[group[0]]) {
            // A lone run's limits are one slice, and it needs no list.
            (&[r], read) => {
                let limits = &runs.limits[runs.runs[r].1.clone()][tile.clone()];
                if let KvRead::Exact { keys, values } = read {
                    attend_exact_run_into(
                        &qs, limits, keys, values, shape, heads, scratch, &mut out,
                    );
                } else {
                    let run = [segment((r, 0..qs.len()))];
                    let out = &mut out;
                    attend_segments_fused_into(
                        &qs, limits, &run, *shared, shape, heads, scratch, out,
                    );
                }
            }
            _ => {
                let pieces = || runs.pieces(group, tile.clone());
                let mut limits = Vec::with_capacity(tile.len());
                limits.extend(pieces().flat_map(|(_, s)| &runs.limits[s]));
                let segments: Vec<Segment<'_>> = pieces().map(segment).collect();
                let out = &mut out;
                attend_segments_fused_into(
                    &qs, &limits, &segments, *shared, shape, heads, scratch, out,
                );
            }
        });
        out
    });
    let mut outs: RowShards = shards
        .iter()
        .map(|shard| vec![vec![0.0f32; shard.shape.q_dim()]; runs.order.len()])
        .collect();
    for ((s, group, _, tile, heads), output) in tasks.iter().zip(&outputs) {
        let shape = &shards[*s].shape;
        let gw = shape.group_size().max(1) * shape.head_dim;
        let steps = runs.pieces(group, tile.clone());
        let steps = steps.flat_map(|(_, steps)| runs.order[steps].iter());
        for (&k, g) in steps.zip(output.chunks(heads.len() * gw)) {
            outs[*s][k][heads.start * gw..][..g.len()].copy_from_slice(g);
        }
    }
    outs
}

/// Observer for batched forward passes: sees every freshly generated K/V
/// vector as `(step_index, layer, kind, vector)`.
pub type BatchKvObserver<'a> = dyn FnMut(usize, usize, KvKind, &[f32]) + 'a;

/// One sequence's step within a batched forward pass
/// ([`Model::forward_batch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStep {
    /// Batch slot in the `BatchKvCache`.
    pub slot: usize,
    /// The sequence's current position (tokens cached so far).
    pub pos: usize,
    /// Token to feed.
    pub token: u32,
}

/// The input of one forward pass ([`Model::forward_batch_sharded`]): the
/// steps, and which of them are **live** — have their logits read. A dead
/// step still leaves its K/V rows in every layer of the cache; it is not
/// computed past the last of them. A plain step slice converts to the
/// batch with every step live.
#[derive(Debug, Clone, Copy)]
pub struct StepBatch<'a> {
    steps: &'a [BatchStep],
    /// Ascending indices into `steps`; `None` is every step.
    live: Option<&'a [usize]>,
}

impl<'a> StepBatch<'a> {
    /// `steps`, of which those at the indices `live` (ascending) are live.
    /// The live steps of a slot must be its newest — the last step of a
    /// prompt chunk, a decode step — which debug builds check.
    ///
    /// # Panics
    ///
    /// Panics unless `live` is strictly ascending and within `steps`.
    pub fn new(steps: &'a [BatchStep], live: &'a [usize]) -> Self {
        assert!(
            live.windows(2).all(|w| w[0] < w[1]) && live.last().is_none_or(|&i| i < steps.len()),
            "live steps are ascending indices into the steps"
        );
        Self {
            steps,
            live: Some(live),
        }
    }
}

/// A plain step list — slice, `Vec` or array — is the batch with every
/// step live.
impl<'a, S: AsRef<[BatchStep]> + ?Sized> From<&'a S> for StepBatch<'a> {
    fn from(steps: &'a S) -> Self {
        Self {
            steps: steps.as_ref(),
            live: None,
        }
    }
}

/// Callback observing each freshly generated KV vector before caching:
/// `(layer, kind, vector)`. This is the hook the offline profiler and the
/// Figure 6 distribution probes attach to.
pub type KvObserver<'m> = Box<dyn FnMut(usize, KvKind, &[f32]) + 'm>;

/// A token-by-token inference session: one sequence on its own
/// one-rank pool, fed through the serving engine's
/// [`PoolBatchView`](crate::PoolBatchView) and [`Model::forward_batch`].
pub struct Session<'m> {
    model: &'m Model,
    store: SeqStore,
    pos: usize,
    observer: Option<KvObserver<'m>>,
}

impl std::fmt::Debug for Session<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("model", &self.model.config().name)
            .field("pos", &self.pos)
            .finish()
    }
}

impl<'m> Session<'m> {
    /// Attaches a KV observer that sees every new K/V vector.
    pub fn set_kv_observer(&mut self, observer: KvObserver<'m>) {
        self.observer = Some(observer);
    }

    /// Current sequence position (tokens consumed so far).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Selects the attention compute kernel for this session's pool and
    /// returns the mode actually installed — [`KernelMode::Exact`] for
    /// stores without a fused read path (exact f32, every non-Oaken
    /// method; requests are capability-gated, never errors). Must be
    /// called before the first token.
    ///
    /// # Panics
    ///
    /// Panics if any token has already been fed.
    pub fn set_kernel_mode(&mut self, kernel: KernelMode) -> KernelMode {
        assert_eq!(self.pos, 0, "kernel mode must be selected before any token");
        self.store.pool.set_kernel_mode(kernel)
    }

    /// The pool's installed kernel mode.
    pub fn kernel_mode(&self) -> KernelMode {
        self.store.pool.kernel_mode()
    }

    /// Feeds one token and returns the next-token logits.
    ///
    /// Runs as a batch of one on the shared [`Model::forward_batch`] pass
    /// over the serving engine's pool view, so the single-sequence path
    /// and the batched serving engine execute identical arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary or the sequence exceeds
    /// `max_seq_len`.
    pub fn advance(&mut self, token: u32) -> Vec<f32> {
        let step = [BatchStep {
            slot: 0,
            pos: self.pos,
            token,
        }];
        let (model, observer) = (self.model, self.observer.as_mut());
        let mut logits = self.store.with_view(|view| match observer {
            Some(obs) => {
                model.forward_batch(view, &step, Some(&mut |_slot, l, kind, v| obs(l, kind, v)))
            }
            None => model.forward_batch(view, &step, None),
        });
        self.pos += 1;
        logits.pop().expect("one step yields one logits vector")
    }

    /// Feeds a token sequence, returning the logits after the final token.
    ///
    /// # Panics
    ///
    /// Panics on an empty prompt.
    pub fn prefill(&mut self, tokens: &[u32]) -> Vec<f32> {
        assert!(!tokens.is_empty(), "prompt must not be empty");
        let mut logits = Vec::new();
        for &t in tokens {
            logits = self.advance(t);
        }
        logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaken_core::{OakenConfig, OakenQuantizer, OfflineProfiler};

    fn tiny() -> Model {
        let cfg = ModelConfig::llama2_7b().proxy(2, 32);
        Model::synthetic(cfg, 42)
    }

    fn profiled_row(d: usize, seed: u64) -> Vec<f32> {
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
                    p.observe(layer, kind, &profiled_row(d.max(64), s * 3 + layer as u64));
                }
            }
        }
        Arc::new(OakenQuantizer::new(config, p.try_finish().unwrap()))
    }

    #[test]
    fn advance_returns_vocab_logits() {
        let m = tiny();
        let mut s = m.session(None);
        let logits = s.advance(5);
        assert_eq!(logits.len(), m.config().vocab_size);
        assert!(logits.iter().all(|v| v.is_finite()));
        assert_eq!(s.position(), 1);
    }

    #[test]
    fn inference_is_deterministic() {
        let m = tiny();
        let mut s1 = m.session(None);
        let mut s2 = m.session(None);
        let a = s1.prefill(&[1, 2, 3]);
        let b = s2.prefill(&[1, 2, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn different_contexts_give_different_logits() {
        let m = tiny();
        let mut s1 = m.session(None);
        let mut s2 = m.session(None);
        let a = s1.prefill(&[1, 2, 3]);
        let b = s2.prefill(&[4, 5, 3]);
        assert_ne!(a, b, "context must influence the final logits");
    }

    #[test]
    fn observer_sees_every_layer_and_kind() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let m = tiny();
        let kv_dim = m.config().kv_dim();
        let seen: Rc<RefCell<Vec<(usize, KvKind)>>> = Rc::new(RefCell::new(Vec::new()));
        {
            let mut s = m.session(None);
            let log = Rc::clone(&seen);
            s.set_kv_observer(Box::new(move |l, kind, v| {
                assert_eq!(v.len(), kv_dim);
                log.borrow_mut().push((l, kind));
            }));
            s.advance(1);
        }
        let seen = seen.borrow();
        assert_eq!(seen.len(), 4); // 2 layers × (key + value)
        assert!(seen.contains(&(0, KvKind::Key)));
        assert!(seen.contains(&(1, KvKind::Value)));
    }

    #[test]
    fn opt_proxy_runs_with_learned_positions() {
        let cfg = ModelConfig::opt_6_7b().proxy(2, 32);
        let m = Model::synthetic(cfg, 7);
        let mut s = m.session(None);
        let logits = s.prefill(&[1, 2, 3, 4]);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn mixtral_proxy_runs_with_moe() {
        let cfg = ModelConfig::mixtral_8x7b().proxy(2, 32);
        let m = Model::synthetic(cfg, 7);
        let mut s = m.session(None);
        let logits = s.prefill(&[9, 8, 7]);
        assert!(logits.iter().all(|v| v.is_finite()));
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn rejects_out_of_vocab_tokens() {
        let m = tiny();
        let mut s = m.session(None);
        s.advance(10_000);
    }

    /// Chunked prefill (multiple steps of one slot in a single
    /// `forward_batch` call) must be bit-identical to feeding the same
    /// tokens one call at a time — the property the serving engine's
    /// per-iteration token budget relies on.
    #[test]
    fn chunked_prefill_matches_single_steps_bitwise() {
        let m = tiny();
        let tokens: Vec<u32> = (0..11).map(|i| (i * 29 + 3) % 256).collect();

        // Reference: one token per call.
        let mut ref_logits = Vec::new();
        let mut session = m.session(None);
        for &token in &tokens {
            ref_logits.push(session.advance(token));
        }

        // Chunked: uneven chunks covering the same positions.
        let mut store = SeqStore::new(m.config(), None);
        let mut logits = Vec::new();
        let mut pos = 0usize;
        for chunk in [1usize, 4, 2, 3, 1] {
            let steps: Vec<BatchStep> = (0..chunk)
                .map(|j| BatchStep {
                    slot: 0,
                    pos: pos + j,
                    token: tokens[pos + j],
                })
                .collect();
            logits.extend(store.with_view(|view| m.forward_batch(view, &steps, None)));
            pos += chunk;
        }

        assert_eq!(logits.len(), ref_logits.len());
        for (i, (a, b)) in logits.iter().zip(&ref_logits).enumerate() {
            let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
            let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
            assert_eq!(ab, bb, "logits diverged at position {i}");
        }
    }

    /// An observer changes no bit and sees each row once. Two multi-step
    /// passes (prompt chunks beside lone steps, over a quantized pool) give
    /// the logits of the same passes without one; the observer sees each
    /// `(step, layer, kind)` row once, layer-major with steps in order,
    /// and per sequence exactly the rows a token-by-token `Session`
    /// observes.
    #[test]
    fn observer_changes_no_bit_and_sees_each_row_once() {
        use crate::pool::{PagedKvPool, PoolBatchView};
        use std::cell::RefCell;
        use std::collections::BTreeMap;
        use std::rc::Rc;

        /// `(slot, pos, layer, kind)`: one observed row.
        type Key = (usize, usize, usize, usize);
        fn bits(v: &[f32]) -> Vec<u32> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        fn kind_index(kind: KvKind) -> usize {
            usize::from(kind == KvKind::Value)
        }

        let m = tiny();
        let cfg = m.config().clone();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        let prompts: [&[u32]; 2] = [&[11, 12, 13, 14, 15], &[40, 41, 42]];
        let step = |slot: usize, pos: usize| BatchStep {
            slot,
            pos,
            token: prompts[slot][pos],
        };
        let iterations = [
            vec![step(0, 0), step(0, 1), step(0, 2), step(0, 3), step(1, 0)],
            vec![step(1, 1), step(1, 2), step(0, 4)],
        ];
        let run = |observe: bool| {
            let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 4096, 512);
            let seqs = [pool.alloc_seq(), pool.alloc_seq()];
            let mut pools = pool;
            let (mut logits, mut order, mut rows) = (Vec::new(), Vec::new(), BTreeMap::new());
            for steps in &iterations {
                let mut view = PoolBatchView::new(&mut pools, &seqs);
                let mut obs = |i: usize, l: usize, kind: KvKind, v: &[f32]| {
                    let key: Key = (steps[i].slot, steps[i].pos, l, kind_index(kind));
                    order.push(key);
                    assert!(rows.insert(key, bits(v)).is_none(), "{key:?} seen twice");
                };
                let observer = observe.then_some(&mut obs as &mut BatchKvObserver<'_>);
                let out = m.forward_batch(&mut view, steps, observer);
                logits.extend(out.iter().map(|l| bits(l)));
            }
            (logits, order, rows)
        };

        let (plain, _, _) = run(false);
        let (observed, order, rows) = run(true);
        assert_eq!(observed, plain, "an observer changes no logit bit");
        let layer_major: Vec<Key> = (iterations.iter())
            .flat_map(|steps| {
                (0..cfg.num_layers).flat_map(move |l| {
                    (steps.iter()).flat_map(move |s| [(s.slot, s.pos, l, 0), (s.slot, s.pos, l, 1)])
                })
            })
            .collect();
        assert_eq!(order, layer_major);

        let mut sessions = BTreeMap::new();
        for (slot, prompt) in prompts.iter().enumerate() {
            let seen = Rc::new(RefCell::new(Vec::new()));
            let mut session = m.session(Some(q.clone()));
            let log = Rc::clone(&seen);
            session.set_kv_observer(Box::new(move |l, kind, v| {
                log.borrow_mut().push((l, kind_index(kind), bits(v)));
            }));
            session.prefill(prompt);
            drop(session);
            for (j, (l, kind, row)) in seen.take().into_iter().enumerate() {
                sessions.insert((slot, j / (2 * cfg.num_layers), l, kind), row);
            }
        }
        assert_eq!(rows, sessions);
    }

    /// The parallel forward pass (weight sweeps and step×KV-head
    /// attention sharded across a runtime) must be
    /// bit-identical to the serial pass for every thread count — over a
    /// real paged pool with mixed decode steps and prompt chunks.
    #[test]
    fn forward_batch_on_matches_serial_bitwise_over_paged_pool() {
        use crate::pool::{PagedKvPool, PoolBatchView};
        use oaken_runtime::Runtime;

        let m = tiny();
        let cfg = m.config().clone();
        let run = |rt: &Runtime| -> Vec<Vec<f32>> {
            let mut pool = PagedKvPool::for_model(&cfg, None, 4096, 512);
            let seqs = vec![pool.alloc_seq(), pool.alloc_seq(), pool.alloc_seq()];
            assert!(pool.append_only_views(), "exact pool is append-only");
            let mut all = Vec::new();
            // Iteration 1: slot 0 feeds a 3-token chunk, slots 1-2 one
            // token each. Iteration 2: everyone decodes one token.
            let mk = |steps: &[BatchStep], pool: &mut PagedKvPool| {
                let mut view = PoolBatchView::new(pool, &seqs);
                m.forward_batch_on(rt, &mut view, steps, None)
            };
            let it1 = [
                BatchStep {
                    slot: 0,
                    pos: 0,
                    token: 11,
                },
                BatchStep {
                    slot: 0,
                    pos: 1,
                    token: 12,
                },
                BatchStep {
                    slot: 0,
                    pos: 2,
                    token: 13,
                },
                BatchStep {
                    slot: 1,
                    pos: 0,
                    token: 40,
                },
                BatchStep {
                    slot: 2,
                    pos: 0,
                    token: 90,
                },
            ];
            all.extend(mk(&it1, &mut pool));
            let it2 = [
                BatchStep {
                    slot: 0,
                    pos: 3,
                    token: 14,
                },
                BatchStep {
                    slot: 1,
                    pos: 1,
                    token: 41,
                },
                BatchStep {
                    slot: 2,
                    pos: 1,
                    token: 91,
                },
            ];
            all.extend(mk(&it2, &mut pool));
            all
        };
        let serial = run(&Runtime::serial());
        for threads in [2usize, 4, 8] {
            let par = run(&Runtime::new(threads));
            assert_eq!(par.len(), serial.len());
            for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
                let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
                let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
                assert_eq!(ab, bb, "step {i} diverged at {threads} threads");
            }
        }
    }

    /// A fused-kernel session is a drop-in for an exact-kernel session over
    /// the same quantizer: kernel mode installs on the session's pool, and
    /// the logits agree within the fused kernels' accumulation-order
    /// tolerance (the stored bits are identical either way).
    #[test]
    fn session_fused_kernel_tracks_exact_kernel() {
        let m = tiny();
        let cfg = m.config();
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        let tokens: Vec<u32> = (0..9).map(|i| (i * 37 + 5) % 256).collect();

        let mut exact = m.session(Some(q.clone()));
        assert_eq!(exact.kernel_mode(), KernelMode::Exact);
        let a = exact.prefill(&tokens);

        let mut fused = m.session(Some(q));
        assert_eq!(fused.set_kernel_mode(KernelMode::Fused), KernelMode::Fused);
        assert_eq!(fused.kernel_mode(), KernelMode::Fused);
        let b = fused.prefill(&tokens);

        let scale = a.iter().fold(0.0f32, |m, x| m.max(x.abs())).max(1e-6);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            assert!(y.is_finite(), "fused logit {i} not finite");
            assert!(
                (x - y).abs() / scale < 1e-2,
                "logit {i} diverged: exact {x} fused {y}"
            );
        }

        // Capability gating: an exact-f32 session ignores the request.
        let mut plain = m.session(None);
        assert_eq!(plain.set_kernel_mode(KernelMode::Fused), KernelMode::Exact);
    }

    /// The parallel forward pass over a *fused* paged pool must stay
    /// bit-identical to the serial fused pass for every thread count, and
    /// the whole run must read encoded rows only (no f32 views).
    #[test]
    fn forward_batch_on_fused_matches_serial_bitwise_over_fused_pool() {
        use crate::cache::KernelMode;
        use crate::pool::{PagedKvPool, PoolBatchView};
        use oaken_runtime::Runtime;

        let mut cfg = ModelConfig::llama2_7b().proxy(2, 64);
        cfg.num_heads = 2;
        cfg.num_kv_heads = 2;
        let m = Model::synthetic(cfg.clone(), 42);
        let q = oaken(cfg.kv_dim(), cfg.num_layers);
        let run = |rt: &Runtime| -> Vec<Vec<f32>> {
            let mut pool = PagedKvPool::for_model(&cfg, Some(q.clone()), 4096, 4096);
            assert_eq!(pool.set_kernel_mode(KernelMode::Fused), KernelMode::Fused);
            let seqs = vec![pool.alloc_seq(), pool.alloc_seq()];
            assert!(pool.append_only_views(), "streaming pool is append-only");
            let mut all = Vec::new();
            let it1: Vec<BatchStep> = (0..3)
                .map(|j| BatchStep {
                    slot: 0,
                    pos: j,
                    token: 11 + j as u32,
                })
                .chain(std::iter::once(BatchStep {
                    slot: 1,
                    pos: 0,
                    token: 40,
                }))
                .collect();
            let it2 = [
                BatchStep {
                    slot: 0,
                    pos: 3,
                    token: 14,
                },
                BatchStep {
                    slot: 1,
                    pos: 1,
                    token: 41,
                },
            ];
            {
                let mut view = PoolBatchView::new(&mut pool, &seqs);
                all.extend(m.forward_batch_on(rt, &mut view, &it1, None));
            }
            {
                let mut view = PoolBatchView::new(&mut pool, &seqs);
                all.extend(m.forward_batch_on(rt, &mut view, &it2, None));
            }
            let reads = pool.kv_read_stats();
            assert!(reads.fused_rows > 0, "fused pool must read encoded rows");
            assert_eq!(reads.exact_rows, 0, "fused pool must not build f32 views");
            all
        };
        let serial = run(&Runtime::serial());
        for threads in [2usize, 4] {
            let par = run(&Runtime::new(threads));
            assert_eq!(par.len(), serial.len());
            for (i, (a, b)) in serial.iter().zip(&par).enumerate() {
                let ab: Vec<u32> = a.iter().map(|x| x.to_bits()).collect();
                let bb: Vec<u32> = b.iter().map(|x| x.to_bits()).collect();
                assert_eq!(ab, bb, "step {i} diverged at {threads} threads");
            }
        }
    }
}
