//! The forward pass against an independent oracle.
//!
//! `Reference` below is a straight-line decoder: one token at a time,
//! `Tensor::matvec` for every projection, `FfnWeights::forward` for the
//! FFN, plain `Vec` K/V rows, and `attend_kv_group_into` per KV head — no
//! batching, no row shards, no runtime, no pool. The property: the one
//! batched pass (`Model::forward_batch_sharded`) over an exact-f32 pool
//! equals it **bit for bit** at every rank count, thread count and chunk
//! schedule, on every structural variant the proxies cover. Every other
//! suite compares the pass with itself (N ranks ≡ 1 rank, parallel ≡
//! serial, chunked ≡ token-by-token); this one pins what "itself" is.

use oaken_model::{
    attend_kv_group_into, AttentionShape, BatchStep, Model, ModelConfig, PagedKvPool,
    PoolBatchView, Positional,
};
use oaken_runtime::{Comm, CommStats, Runtime};
use oaken_tensor::norm::{layernorm, rmsnorm, NormKind};
use oaken_tensor::rope::{apply_rope, DEFAULT_THETA};
use proptest::prelude::*;

/// One sequence decoded the slow, obvious way.
struct Reference<'m> {
    model: &'m Model,
    /// `[layer]` → row-major `[pos × kv_dim]` keys and values.
    keys: Vec<Vec<f32>>,
    values: Vec<Vec<f32>>,
    pos: usize,
}

impl<'m> Reference<'m> {
    fn new(model: &'m Model) -> Self {
        let layers = model.config().num_layers;
        Self {
            model,
            keys: vec![Vec::new(); layers],
            values: vec![Vec::new(); layers],
            pos: 0,
        }
    }

    fn norm(&self, x: &[f32], w: &[f32], b: Option<&Vec<f32>>) -> Vec<f32> {
        match self.model.config().norm {
            NormKind::Rms => rmsnorm(x, w, 1e-5),
            NormKind::Layer => layernorm(x, w, b.map_or(&[][..], |v| v), 1e-5),
        }
    }

    /// Feeds one token, returns the next-token logits.
    fn advance(&mut self, token: u32) -> Vec<f32> {
        let cfg = self.model.config();
        let hd = cfg.head_dim();
        let shape = AttentionShape {
            num_heads: cfg.num_heads,
            num_kv_heads: cfg.num_kv_heads,
            head_dim: hd,
            window: cfg.sliding_window,
        };
        let mut x = self.model.embed().row(token as usize).to_vec();
        if let Some(pe) = self.model.pos_embed() {
            for (xi, pi) in x.iter_mut().zip(pe.row(self.pos)) {
                *xi += pi;
            }
        }
        for (l, lw) in self.model.layers().iter().enumerate() {
            let h = self.norm(&x, &lw.attn_norm_w, lw.attn_norm_b.as_ref());
            let mut q = lw.wq.matvec(&h).unwrap();
            let mut k = lw.wk.matvec(&h).unwrap();
            let v = lw.wv.matvec(&h).unwrap();
            if cfg.positional == Positional::Rope {
                for head in q.chunks_mut(hd).chain(k.chunks_mut(hd)) {
                    apply_rope(head, self.pos, DEFAULT_THETA);
                }
            }
            self.keys[l].extend_from_slice(&k);
            self.values[l].extend_from_slice(&v);
            let gw = shape.group_size().max(1) * hd;
            let mut att = vec![0.0f32; shape.q_dim()];
            let mut scores = Vec::new();
            for (kv_head, out_g) in att.chunks_mut(gw).enumerate() {
                attend_kv_group_into(
                    &q,
                    &self.keys[l],
                    &self.values[l],
                    self.pos + 1,
                    &shape,
                    kv_head,
                    out_g,
                    &mut scores,
                );
            }
            for (xi, pi) in x.iter_mut().zip(lw.wo.matvec(&att).unwrap()) {
                *xi += pi;
            }
            let h = self.norm(&x, &lw.ffn_norm_w, lw.ffn_norm_b.as_ref());
            for (xi, yi) in x.iter_mut().zip(lw.ffn.forward(&h, cfg.activation)) {
                *xi += yi;
            }
        }
        self.pos += 1;
        let (w, b) = self.model.final_norm();
        let h = self.norm(&x, w, b);
        self.model.lm_head().matvec(&h).unwrap()
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Feeds `prompts` (one per batch slot) through the batched pass over an
/// exact-f32 pool split into `ranks` shards, at most `chunk` tokens per
/// slot per pass, and returns every position's logits per slot.
fn batched(
    model: &Model,
    prompts: &[Vec<u32>],
    ranks: usize,
    threads: usize,
    chunk: usize,
) -> Vec<Vec<Vec<u32>>> {
    let cfg = model.config();
    let rt = Runtime::new(threads);
    let mut pools = PagedKvPool::for_model(cfg, None, 512, 4096);
    pools.set_ranks(ranks);
    let plan = pools.plan().clone();
    let mut comm = Comm::new(ranks);
    let seqs: Vec<_> = prompts
        .iter()
        .map(|_| pools.alloc_seq_with_prefix(&[]).seq)
        .collect();
    let mut out: Vec<Vec<Vec<u32>>> = vec![Vec::new(); prompts.len()];
    while out.iter().zip(prompts).any(|(o, p)| o.len() < p.len()) {
        let mut steps = Vec::new();
        for (slot, prompt) in prompts.iter().enumerate() {
            let from = out[slot].len();
            let upto = (from + chunk).min(prompt.len());
            steps.extend((from..upto).map(|pos| BatchStep {
                slot,
                pos,
                token: prompt[pos],
            }));
        }
        let mut view = PoolBatchView::new(&mut pools, &seqs);
        let logits = model.forward_batch_sharded(&rt, &plan, &mut comm, &mut view, &steps, None);
        for (step, l) in steps.iter().zip(&logits) {
            out[step.slot].push(bits(l));
        }
    }
    if ranks == 1 {
        assert_eq!(comm.stats(), CommStats::default(), "one rank, no traffic");
    } else {
        assert!(comm.stats().allreduce_calls > 0);
        assert_eq!(comm.stats().sync_calls, 0, "f32 shards share no scales");
    }
    out
}

/// The structural variants, each with at least three KV heads so rank
/// counts 1–3 (3 splits unevenly) all fit.
fn proxies() -> Vec<(&'static str, ModelConfig)> {
    let with_kv_heads = |mut cfg: ModelConfig, kv: usize| {
        cfg.num_kv_heads = kv;
        cfg
    };
    vec![
        ("dense", ModelConfig::llama2_7b().proxy(2, 64)),
        (
            "gqa",
            with_kv_heads(ModelConfig::llama2_7b().proxy(2, 32), 4),
        ),
        (
            "sliding-window",
            with_kv_heads(ModelConfig::mistral_7b().proxy(2, 32), 4),
        ),
        (
            "moe",
            with_kv_heads(ModelConfig::mixtral_8x7b().proxy(2, 32), 4),
        ),
        ("learned-position", ModelConfig::opt_6_7b().proxy(2, 32)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    #[test]
    fn batched_pass_equals_the_straight_line_reference(seed in 0u64..1_000) {
        for (name, cfg) in proxies() {
            prop_assert!(cfg.num_kv_heads >= 3, "{} fits three ranks", name);
            let model = Model::synthetic(cfg.clone(), seed);
            // Slot 0 outruns the proxies' 64-row window and crosses two
            // query tiles; slot 1 finishes early, so later passes feed a
            // lone slot.
            let prompts: Vec<Vec<u32>> = [75u64, 21]
                .iter()
                .map(|&len| {
                    (0..len)
                        .map(|i| ((seed * 31 + len * 7 + i * 131 + i * i) % 256) as u32)
                        .collect()
                })
                .collect();
            let want: Vec<Vec<Vec<u32>>> = prompts
                .iter()
                .map(|prompt| {
                    let mut reference = Reference::new(&model);
                    prompt.iter().map(|&t| bits(&reference.advance(t))).collect()
                })
                .collect();
            for ranks in [1usize, 2, 3] {
                for threads in [1usize, 4] {
                    for chunk in [1usize, 16, 75] {
                        let got = batched(&model, &prompts, ranks, threads, chunk);
                        prop_assert!(
                            got == want,
                            "{}: {} ranks, {} threads, chunk {} diverged from the reference",
                            name, ranks, threads, chunk
                        );
                    }
                }
            }
        }
    }
}
