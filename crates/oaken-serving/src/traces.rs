//! Statistical synthesizers for the two Azure production traces of §6.1.
//!
//! * **Conversation** (Splitwise / AzurePublicDataset): chat traffic with
//!   long prompts and *short* outputs — the generation phase is brief, so
//!   KV-quantization gains are muted (Figure 14a/c).
//! * **BurstGPT**: longer outputs relative to prompts — generation
//!   dominates and Oaken's advantage widens (Figure 14b/d).
//!
//! Lengths are drawn from clamped log-normal distributions whose medians
//! match the published trace statistics.

use crate::request::Request;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Length-distribution parameters of one trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Trace name as used in Figure 14.
    pub name: &'static str,
    /// Median prompt length (tokens).
    pub input_median: f64,
    /// Log-space sigma of prompt lengths.
    pub input_sigma: f64,
    /// Median output length (tokens).
    pub output_median: f64,
    /// Log-space sigma of output lengths.
    pub output_sigma: f64,
    /// Hard clamp on either length.
    pub max_len: usize,
}

impl TraceSpec {
    /// The Azure `Conversation` trace: median prompt ≈ 1020 tokens, median
    /// output ≈ 130 tokens (Splitwise Table 1).
    pub fn conversation() -> Self {
        Self {
            name: "Conversation",
            input_median: 1020.0,
            input_sigma: 0.7,
            output_median: 130.0,
            output_sigma: 0.6,
            max_len: 4096,
        }
    }

    /// BurstGPT: shorter prompts, substantially longer outputs
    /// (median output ≈ 350 tokens).
    pub fn burstgpt() -> Self {
        Self {
            name: "BurstGPT",
            input_median: 620.0,
            input_sigma: 0.8,
            output_median: 350.0,
            output_sigma: 0.7,
            max_len: 4096,
        }
    }
}

/// Approximate standard normal from summed uniforms.
fn normal(rng: &mut StdRng) -> f64 {
    let s: f64 = (0..6).map(|_| rng.gen::<f64>()).sum();
    (s - 3.0) * (2.0f64).sqrt()
}

fn lognormal_len(rng: &mut StdRng, median: f64, sigma: f64, max_len: usize) -> usize {
    let v = median * (sigma * normal(rng)).exp();
    (v.round() as usize).clamp(8, max_len)
}

/// Synthesizes `n` requests from a trace's length distributions.
pub fn synthesize_requests(spec: &TraceSpec, n: usize, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_7ACE);
    (0..n as u64)
        .map(|id| Request {
            id,
            input_len: lognormal_len(&mut rng, spec.input_median, spec.input_sigma, spec.max_len),
            output_len: lognormal_len(
                &mut rng,
                spec.output_median,
                spec.output_sigma,
                spec.max_len,
            ),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn median(mut v: Vec<usize>) -> f64 {
        v.sort_unstable();
        v[v.len() / 2] as f64
    }

    #[test]
    fn conversation_has_short_outputs() {
        let reqs = synthesize_requests(&TraceSpec::conversation(), 500, 1);
        let in_med = median(reqs.iter().map(|r| r.input_len).collect());
        let out_med = median(reqs.iter().map(|r| r.output_len).collect());
        assert!((700.0..1400.0).contains(&in_med), "input median {in_med}");
        assert!((90.0..190.0).contains(&out_med), "output median {out_med}");
        assert!(out_med < in_med / 3.0);
    }

    #[test]
    fn burstgpt_has_longer_outputs_than_conversation() {
        let conv = synthesize_requests(&TraceSpec::conversation(), 500, 2);
        let burst = synthesize_requests(&TraceSpec::burstgpt(), 500, 2);
        let conv_out = median(conv.iter().map(|r| r.output_len).collect());
        let burst_out = median(burst.iter().map(|r| r.output_len).collect());
        assert!(
            burst_out > conv_out * 1.8,
            "burst {burst_out} vs conv {conv_out}"
        );
    }

    #[test]
    fn synthesis_is_deterministic_and_bounded() {
        let spec = TraceSpec::conversation();
        let a = synthesize_requests(&spec, 100, 7);
        let b = synthesize_requests(&spec, 100, 7);
        assert_eq!(a, b);
        assert!(a
            .iter()
            .all(|r| r.input_len <= spec.max_len && r.input_len >= 8));
    }
}
