//! Model configurations: presets for the eight LLMs of the paper's
//! evaluation (§6.1) with their public architectural dimensions, plus
//! scaled-down *proxy* variants that preserve every structural feature
//! (GQA ratio, sliding window, MoE, norm/activation/positional choices) so
//! the accuracy experiments can actually run on CPU.
//!
//! The full-size presets drive the performance simulator's memory and FLOP
//! accounting; the proxies drive real inference.

use oaken_tensor::activation::Activation;
use oaken_tensor::norm::NormKind;
use serde::{Deserialize, Serialize};

/// Positional-encoding scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Positional {
    /// Rotary embeddings applied to Q/K (Llama2, Mistral, Mixtral).
    Rope,
    /// Learned absolute position embeddings (OPT).
    Learned,
}

/// Mixture-of-experts configuration (Mixtral).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct MoeConfig {
    /// Total experts per layer.
    pub num_experts: usize,
    /// Experts activated per token.
    pub top_k: usize,
}

/// Architecture description of a decoder-only transformer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// Human-readable name ("Llama2-7B", ...).
    pub name: String,
    /// Decoder layer count.
    pub num_layers: usize,
    /// Hidden size.
    pub d_model: usize,
    /// Query heads.
    pub num_heads: usize,
    /// Key/value heads (`< num_heads` ⇒ grouped-query attention).
    pub num_kv_heads: usize,
    /// Feed-forward hidden size (per expert, for MoE).
    pub ffn_hidden: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Normalisation kind.
    pub norm: NormKind,
    /// FFN activation (SiLU ⇒ gated/SwiGLU, ReLU/GELU ⇒ plain 2-matrix).
    pub activation: Activation,
    /// Positional scheme.
    pub positional: Positional,
    /// Sliding-window attention span (Mistral, Mixtral).
    pub sliding_window: Option<usize>,
    /// Mixture-of-experts configuration, if any.
    pub moe: Option<MoeConfig>,
    /// Maximum sequence length supported.
    pub max_seq_len: usize,
}

impl ModelConfig {
    /// Head dimension, `d_model / num_heads`.
    pub fn head_dim(&self) -> usize {
        self.d_model / self.num_heads
    }

    /// KV hidden size per token per layer, `num_kv_heads × head_dim`.
    pub fn kv_dim(&self) -> usize {
        self.num_kv_heads * self.head_dim()
    }

    /// Whether the FFN uses a gate matrix (SwiGLU-style).
    pub fn gated_ffn(&self) -> bool {
        self.activation == Activation::Silu
    }

    /// Total parameter count.
    pub fn param_count(&self) -> u64 {
        let d = self.d_model as u64;
        let kv = self.kv_dim() as u64;
        let v = self.vocab_size as u64;
        let f = self.ffn_hidden as u64;
        let ffn_mats: u64 = if self.gated_ffn() { 3 } else { 2 };
        let ffn_per_expert = ffn_mats * d * f;
        let ffn = match self.moe {
            Some(m) => m.num_experts as u64 * ffn_per_expert + d * m.num_experts as u64,
            None => ffn_per_expert,
        };
        let attn = d * d + 2 * d * kv + d * d; // Wq, Wk, Wv, Wo
        let norms = match self.norm {
            NormKind::Rms => 2 * d,
            NormKind::Layer => 4 * d, // weight + bias, two norms
        };
        let per_layer = attn + ffn + norms;
        let embed = v * d;
        let pos = match self.positional {
            Positional::Learned => self.max_seq_len as u64 * d,
            Positional::Rope => 0,
        };
        let head = v * d + d; // LM head + final norm
        embed + pos + self.num_layers as u64 * per_layer + head
    }

    /// Weight bytes at the given storage precision.
    pub fn weight_bytes(&self, bits_per_param: f64) -> u64 {
        (self.param_count() as f64 * bits_per_param / 8.0).ceil() as u64
    }

    /// KV cache bytes per token at the given storage precision
    /// (`2 × layers × kv_dim × bits/8`).
    pub fn kv_bytes_per_token(&self, bits_per_elem: f64) -> u64 {
        self.kv_slice_bytes_per_token(self.kv_dim(), bits_per_elem)
    }

    /// [`kv_bytes_per_token`](Self::kv_bytes_per_token) of a `width`-channel
    /// slice of every K/V row — one tensor-parallel rank's share.
    pub(crate) fn kv_slice_bytes_per_token(&self, width: usize, bits_per_elem: f64) -> u64 {
        (2.0 * self.num_layers as f64 * width as f64 * bits_per_elem / 8.0).ceil() as u64
    }

    /// Effective attention span at `seq_len` given any sliding window.
    pub fn attention_span(&self, seq_len: usize) -> usize {
        match self.sliding_window {
            Some(w) => seq_len.min(w),
            None => seq_len,
        }
    }

    /// A scaled-down proxy preserving all structural features, suitable for
    /// real CPU inference in the accuracy experiments. `layers` and `d`
    /// control the proxy size; head counts keep the original GQA ratio.
    pub fn proxy(&self, layers: usize, d: usize) -> ModelConfig {
        let heads = 8.min(self.num_heads);
        let gqa_ratio = (self.num_heads / self.num_kv_heads).max(1);
        let kv_heads = (heads / gqa_ratio).max(1);
        ModelConfig {
            name: format!("{}-proxy", self.name),
            num_layers: layers,
            d_model: d,
            num_heads: heads,
            num_kv_heads: kv_heads,
            ffn_hidden: d * self.ffn_hidden / self.d_model,
            vocab_size: 256,
            norm: self.norm,
            activation: self.activation,
            positional: self.positional,
            sliding_window: self.sliding_window.map(|_| 64),
            moe: self.moe,
            max_seq_len: 512,
        }
    }

    // ----- paper model presets -------------------------------------------

    /// Llama2-7B: 32 layers, d=4096, 32 heads, MHA, SwiGLU.
    pub fn llama2_7b() -> Self {
        Self::llama("Llama2-7B", 32, 4096, 32, 32, 11008)
    }

    /// Llama2-13B: 40 layers, d=5120, 40 heads, MHA.
    pub fn llama2_13b() -> Self {
        Self::llama("Llama2-13B", 40, 5120, 40, 40, 13824)
    }

    /// Llama2-70B: 80 layers, d=8192, 64 heads, 8 KV heads (GQA).
    pub fn llama2_70b() -> Self {
        Self::llama("Llama2-70B", 80, 8192, 64, 8, 28672)
    }

    fn llama(
        name: &str,
        layers: usize,
        d: usize,
        heads: usize,
        kv_heads: usize,
        ffn: usize,
    ) -> Self {
        ModelConfig {
            name: name.to_owned(),
            num_layers: layers,
            d_model: d,
            num_heads: heads,
            num_kv_heads: kv_heads,
            ffn_hidden: ffn,
            vocab_size: 32_000,
            norm: NormKind::Rms,
            activation: Activation::Silu,
            positional: Positional::Rope,
            sliding_window: None,
            moe: None,
            max_seq_len: 4096,
        }
    }

    /// OPT-6.7B: 32 layers, d=4096, 32 heads, LayerNorm + ReLU + learned pos.
    pub fn opt_6_7b() -> Self {
        Self::opt("OPT-6.7B", 32, 4096, 32, 16384)
    }

    /// OPT-13B: 40 layers, d=5120, 40 heads.
    pub fn opt_13b() -> Self {
        Self::opt("OPT-13B", 40, 5120, 40, 20480)
    }

    /// OPT-30B: 48 layers, d=7168, 56 heads.
    pub fn opt_30b() -> Self {
        Self::opt("OPT-30B", 48, 7168, 56, 28672)
    }

    fn opt(name: &str, layers: usize, d: usize, heads: usize, ffn: usize) -> Self {
        ModelConfig {
            name: name.to_owned(),
            num_layers: layers,
            d_model: d,
            num_heads: heads,
            num_kv_heads: heads,
            ffn_hidden: ffn,
            vocab_size: 50_272,
            norm: NormKind::Layer,
            activation: Activation::Relu,
            positional: Positional::Learned,
            sliding_window: None,
            moe: None,
            max_seq_len: 2048,
        }
    }

    /// Mistral-7B: GQA (8 KV heads) + sliding-window attention (4096).
    pub fn mistral_7b() -> Self {
        ModelConfig {
            name: "Mistral-7B".to_owned(),
            num_layers: 32,
            d_model: 4096,
            num_heads: 32,
            num_kv_heads: 8,
            ffn_hidden: 14336,
            vocab_size: 32_000,
            norm: NormKind::Rms,
            activation: Activation::Silu,
            positional: Positional::Rope,
            sliding_window: Some(4096),
            moe: None,
            max_seq_len: 32_768,
        }
    }

    /// Mixtral-8x7B: Mistral base + 8-expert top-2 MoE FFN.
    pub fn mixtral_8x7b() -> Self {
        ModelConfig {
            moe: Some(MoeConfig {
                num_experts: 8,
                top_k: 2,
            }),
            name: "Mixtral-8x7B".to_owned(),
            ..Self::mistral_7b()
        }
    }

    /// All eight paper models in Table 2 order.
    pub fn paper_models() -> Vec<ModelConfig> {
        vec![
            Self::llama2_7b(),
            Self::llama2_13b(),
            Self::llama2_70b(),
            Self::opt_6_7b(),
            Self::opt_13b(),
            Self::opt_30b(),
            Self::mistral_7b(),
            Self::mixtral_8x7b(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama2_7b_param_count_close_to_nominal() {
        let p = ModelConfig::llama2_7b().param_count() as f64 / 1e9;
        assert!((6.4..7.1).contains(&p), "{p}B");
    }

    #[test]
    fn llama2_70b_uses_gqa() {
        let c = ModelConfig::llama2_70b();
        assert_eq!(c.num_kv_heads, 8);
        assert_eq!(c.head_dim(), 128);
        assert_eq!(c.kv_dim(), 1024);
        let p = c.param_count() as f64 / 1e9;
        assert!((64.0..72.0).contains(&p), "{p}B");
    }

    #[test]
    fn opt_30b_param_count() {
        let p = ModelConfig::opt_30b().param_count() as f64 / 1e9;
        assert!((28.0..32.0).contains(&p), "{p}B");
    }

    #[test]
    fn mixtral_param_count_counts_all_experts() {
        let p = ModelConfig::mixtral_8x7b().param_count() as f64 / 1e9;
        assert!((44.0..48.5).contains(&p), "{p}B");
    }

    #[test]
    fn llama2_7b_kv_bytes_per_token_fp16() {
        // Known value: 2 × 32 layers × 4096 × 2 bytes = 512 KiB/token.
        let b = ModelConfig::llama2_7b().kv_bytes_per_token(16.0);
        assert_eq!(b, 2 * 32 * 4096 * 2);
    }

    #[test]
    fn gqa_shrinks_kv_cache() {
        let mha = ModelConfig::llama2_7b().kv_bytes_per_token(16.0) as f64
            / ModelConfig::llama2_7b().num_layers as f64;
        let gqa = ModelConfig::mistral_7b().kv_bytes_per_token(16.0) as f64
            / ModelConfig::mistral_7b().num_layers as f64;
        assert!((mha / gqa - 4.0).abs() < 0.01, "expected 4× reduction");
    }

    #[test]
    fn sliding_window_caps_attention_span() {
        let c = ModelConfig::mistral_7b();
        assert_eq!(c.attention_span(1000), 1000);
        assert_eq!(c.attention_span(10_000), 4096);
        assert_eq!(ModelConfig::llama2_7b().attention_span(10_000), 10_000);
    }

    #[test]
    fn proxy_preserves_structure() {
        let p = ModelConfig::llama2_70b().proxy(4, 64);
        assert_eq!(p.num_heads / p.num_kv_heads, 8); // GQA ratio preserved
        assert_eq!(p.norm, NormKind::Rms);
        let p = ModelConfig::opt_6_7b().proxy(4, 64);
        assert_eq!(p.positional, Positional::Learned);
        assert_eq!(p.activation, Activation::Relu);
        let p = ModelConfig::mixtral_8x7b().proxy(2, 32);
        assert!(p.moe.is_some());
        assert!(p.sliding_window.is_some());
    }

    #[test]
    fn paper_models_all_distinct() {
        let models = ModelConfig::paper_models();
        assert_eq!(models.len(), 8);
        let mut names: Vec<_> = models.iter().map(|m| m.name.clone()).collect();
        names.dedup();
        assert_eq!(names.len(), 8);
    }
}
