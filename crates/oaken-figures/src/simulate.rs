//! Trace-driven serving simulation (Figure 14): sample requests from a
//! trace, synthesize batches, run each batch through the system model, and
//! average generation throughput — the methodology of §6.1's real-world
//! benchmark.

use oaken_accel::{CapacityPolicy, SystemModel};
use oaken_model::ModelConfig;
use oaken_serving::Request;

/// Aggregate length statistics of a batch (drives the padding penalty for
/// systolic platforms and the capacity check).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub count: usize,
    /// Mean prompt length.
    pub mean_input: f64,
    /// Longest prompt (padding target).
    pub max_input: usize,
    /// Mean output length.
    pub mean_output: f64,
    /// Longest output.
    pub max_output: usize,
}

impl BatchStats {
    /// Computes statistics over a batch.
    ///
    /// # Panics
    ///
    /// Panics on an empty batch.
    pub fn of(batch: &[Request]) -> Self {
        assert!(!batch.is_empty(), "batch must not be empty");
        let count = batch.len();
        BatchStats {
            count,
            mean_input: batch.iter().map(|r| r.input_len as f64).sum::<f64>() / count as f64,
            max_input: batch.iter().map(|r| r.input_len).max().unwrap_or(0),
            mean_output: batch.iter().map(|r| r.output_len as f64).sum::<f64>() / count as f64,
            max_output: batch.iter().map(|r| r.output_len).max().unwrap_or(0),
        }
    }
}

/// Result of replaying a trace on one system.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceResult {
    /// System name.
    pub system: String,
    /// Generated tokens per second across the whole replay.
    pub gen_throughput: f64,
    /// Total simulated seconds.
    pub total_time: f64,
    /// Output tokens produced.
    pub output_tokens: u64,
    /// Batches that could not run at all (capacity).
    pub oom_batches: usize,
}

/// Replays `requests` in synthesized batches of `batch` on a system model.
///
/// Per batch:
/// 1. a capacity check admits the batch (or sub-batches for waving
///    systems; hard-fails for fixed-allocation NPUs);
/// 2. prefill runs — padded to the longest prompt on systolic platforms
///    (`pads_to_max_prompt`), which is Tender's Figure 14 weakness;
/// 3. generation iterates with the active request count shrinking as short
///    outputs complete.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn simulate_trace(
    sys: &SystemModel,
    model: &ModelConfig,
    requests: &[Request],
    batch: usize,
) -> TraceResult {
    assert!(batch > 0, "batch size must be positive");
    let mut total_time = 0.0f64;
    let mut output_tokens = 0u64;
    let mut oom_batches = 0usize;

    for chunk in requests.chunks(batch) {
        let longest = chunk.iter().map(Request::total_len).max().unwrap_or(0);
        let fits = sys.max_concurrent_batch(model, longest);
        let sub_batches: Vec<&[Request]> = if fits >= chunk.len() {
            vec![chunk]
        } else {
            match sys.capacity {
                CapacityPolicy::Fail => {
                    oom_batches += 1;
                    continue;
                }
                CapacityPolicy::Waves => {
                    if fits == 0 {
                        oom_batches += 1;
                        continue;
                    }
                    chunk.chunks(fits).collect()
                }
            }
        };

        let mut prefill_time = 0.0f64;
        let mut gen_time = 0.0f64;
        for sub in sub_batches {
            let s = BatchStats::of(sub);
            // Prefill, padded on systolic platforms; prefill is one fused
            // launch and does not pay the per-token serving-stack tax.
            let prefill_len = if sys.accel.pads_to_max_prompt {
                s.max_input
            } else {
                s.mean_input.round() as usize
            };
            prefill_time += sys.prefill_time(model, sub.len(), prefill_len.max(1));

            // Generation: active set shrinks as outputs complete.
            let mut outputs: Vec<usize> = sub.iter().map(|r| r.output_len).collect();
            outputs.sort_unstable();
            let max_out = *outputs.last().unwrap_or(&0);
            // Sample the shrinking schedule at up to 32 points.
            let samples = max_out.clamp(1, 32);
            let step = max_out as f64 / samples as f64;
            for i in 0..samples {
                let t = ((i as f64 + 0.5) * step) as usize;
                let active = outputs.iter().filter(|&&o| o > t).count();
                if active == 0 {
                    continue;
                }
                let ctx = s.mean_input.round() as usize + t;
                let it = sys.generation_iteration(model, active, ctx);
                gen_time += it.total() * step;
            }
            output_tokens += sub.iter().map(|r| r.output_len as u64).sum::<u64>();
        }
        total_time += prefill_time + gen_time / sys.accel.framework_efficiency;
    }

    TraceResult {
        system: sys.name(),
        gen_throughput: if total_time > 0.0 {
            output_tokens as f64 / total_time
        } else {
            0.0
        },
        total_time,
        output_tokens,
        oom_batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaken_accel::{AcceleratorSpec, QuantPolicy};
    use oaken_serving::{synthesize_requests, TraceSpec};

    fn llama13b() -> ModelConfig {
        ModelConfig::llama2_13b()
    }

    fn reqs(spec: &TraceSpec) -> Vec<Request> {
        synthesize_requests(spec, 64, 42)
    }

    #[test]
    fn stats_of_mixed_batch() {
        let batch = [
            Request {
                id: 0,
                input_len: 100,
                output_len: 10,
            },
            Request {
                id: 1,
                input_len: 300,
                output_len: 30,
            },
        ];
        let s = BatchStats::of(&batch);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean_input, 200.0);
        assert_eq!(s.max_input, 300);
        assert_eq!(s.max_output, 30);
    }

    #[test]
    fn oaken_beats_lpu_on_burstgpt() {
        // Figure 14(b): long outputs → generation dominates → KV quant wins.
        let m = llama13b();
        let burst = reqs(&TraceSpec::burstgpt());
        let oaken = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken());
        let lpu = SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16());
        let to = simulate_trace(&oaken, &m, &burst, 64).gen_throughput;
        let tl = simulate_trace(&lpu, &m, &burst, 64).gen_throughput;
        assert!(to > tl * 1.1, "oaken {to} vs lpu {tl}");
    }

    #[test]
    fn oaken_advantage_larger_on_burstgpt_than_conversation() {
        // Figure 14(a) vs (b): short Conversation outputs mute the gain.
        let m = llama13b();
        let oaken = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken());
        let lpu = SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16());
        let gain = |trace: &TraceSpec| {
            let r = reqs(trace);
            simulate_trace(&oaken, &m, &r, 64).gen_throughput
                / simulate_trace(&lpu, &m, &r, 64).gen_throughput
        };
        let conv_gain = gain(&TraceSpec::conversation());
        let burst_gain = gain(&TraceSpec::burstgpt());
        assert!(
            burst_gain > conv_gain,
            "burst {burst_gain} vs conv {conv_gain}"
        );
    }

    #[test]
    fn tender_suffers_padding_on_traces() {
        // Figure 14: varying prompt lengths waste systolic cycles.
        let m = llama13b();
        let trace = reqs(&TraceSpec::conversation());
        let tender = SystemModel::new(AcceleratorSpec::tender(), QuantPolicy::tender());
        let r = simulate_trace(&tender, &m, &trace, 32);
        // Compare against the same system forced to no padding.
        let mut no_pad_spec = AcceleratorSpec::tender();
        no_pad_spec.pads_to_max_prompt = false;
        let no_pad = SystemModel::new(no_pad_spec, QuantPolicy::tender());
        let r2 = simulate_trace(&no_pad, &m, &trace, 32);
        assert!(
            r.gen_throughput < r2.gen_throughput,
            "padding should cost throughput: {} vs {}",
            r.gen_throughput,
            r2.gen_throughput
        );
    }

    #[test]
    fn throughput_counts_all_outputs() {
        let m = llama13b();
        let trace = reqs(&TraceSpec::conversation());
        let sys = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken());
        let r = simulate_trace(&sys, &m, &trace, 16);
        let expected: u64 = trace.iter().map(|q| q.output_len as u64).sum();
        assert_eq!(r.output_tokens, expected);
        assert_eq!(r.oom_batches, 0);
        assert!(r.gen_throughput > 0.0);
    }

    #[test]
    fn gqa_model_narrows_quantization_gain() {
        // Figure 14(c,d): Mixtral's GQA shrinks the KV cache 4×, so
        // quantization helps less than on MHA Llama2-13B.
        let burst = reqs(&TraceSpec::burstgpt());
        let oaken = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken());
        let lpu = SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16());
        let gain = |m: &ModelConfig| {
            simulate_trace(&oaken, m, &burst, 64).gen_throughput
                / simulate_trace(&lpu, m, &burst, 64).gen_throughput
        };
        let mha_gain = gain(&ModelConfig::llama2_13b());
        let gqa_gain = gain(&ModelConfig::mixtral_8x7b());
        assert!(
            gqa_gain < mha_gain,
            "GQA should mute the gain: {gqa_gain} vs {mha_gain}"
        );
    }
}
