//! Property tests for the Figure 14 trace simulation: sanity under
//! arbitrary request mixes.

use oaken_accel::{AcceleratorSpec, QuantPolicy, SystemModel};
use oaken_figures::simulate_trace;
use oaken_model::ModelConfig;
use oaken_serving::Request;
use proptest::prelude::*;

fn requests(max: usize) -> impl Strategy<Value = Vec<Request>> {
    prop::collection::vec((8usize..2048, 8usize..512), 1..max).prop_map(|pairs| {
        pairs
            .into_iter()
            .enumerate()
            .map(|(id, (input_len, output_len))| Request {
                id: id as u64,
                input_len,
                output_len,
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The trace simulator accounts every output token exactly once and
    /// produces finite positive throughput whenever anything ran.
    #[test]
    fn trace_sim_conserves_tokens(reqs in requests(24), batch in 1usize..16) {
        let m = ModelConfig::llama2_7b();
        let sys = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken());
        let r = simulate_trace(&sys, &m, &reqs, batch);
        let expected: u64 = reqs.iter().map(|q| q.output_len as u64).sum();
        prop_assert_eq!(r.output_tokens, expected);
        prop_assert!(r.total_time.is_finite() && r.total_time > 0.0);
        prop_assert!(r.gen_throughput > 0.0);
    }

    /// A faster memory system never lowers trace throughput.
    #[test]
    fn more_bandwidth_never_hurts(reqs in requests(16)) {
        let m = ModelConfig::llama2_7b();
        let lpddr = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken());
        let mut fast_spec = AcceleratorSpec::oaken_lpddr();
        fast_spec.mem.bandwidth *= 2.0;
        let fast = SystemModel::new(fast_spec, QuantPolicy::oaken());
        let slow_t = simulate_trace(&lpddr, &m, &reqs, 8).gen_throughput;
        let fast_t = simulate_trace(&fast, &m, &reqs, 8).gen_throughput;
        prop_assert!(fast_t >= slow_t * 0.999, "{fast_t} < {slow_t}");
    }
}
