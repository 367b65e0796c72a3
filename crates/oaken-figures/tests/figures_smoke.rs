//! Smoke tests for every figure/table pipeline with reduced parameters —
//! each bench binary's core computation must run and produce the paper's
//! qualitative shape.

use oaken_accel::{
    generation_utilization, tradeoff_space, AcceleratorSpec, AreaModel, CapacityPolicy, OpSegment,
    PowerModel, QuantPolicy, SystemModel, Workload,
};
use oaken_baselines::AblationQuantizer;
use oaken_figures::simulate_trace;
use oaken_model::ModelConfig;
use oaken_serving::{synthesize_requests, TraceSpec};

#[test]
fn fig01_tradeoff_space_shape() {
    let pts = tradeoff_space();
    let oaken = pts.iter().find(|p| p.name == "Oaken").expect("Oaken point");
    assert!(oaken.eff_capacity_gb > 800.0);
    assert!(oaken.throughput.is_some());
}

#[test]
fn fig03_mha_underutilized() {
    let r = generation_utilization(
        &AcceleratorSpec::a100(),
        &ModelConfig::llama2_13b(),
        32,
        1536,
    );
    assert!(r.get(OpSegment::Mha) < r.get(OpSegment::Ffn));
}

#[test]
fn fig04_oom_crossover() {
    let m = ModelConfig::opt_30b();
    let hbm = SystemModel::new(AcceleratorSpec::hbm_npu(), QuantPolicy::fp16())
        .with_capacity(CapacityPolicy::Fail);
    let lpddr = SystemModel::new(AcceleratorSpec::lpddr_npu(), QuantPolicy::fp16())
        .with_capacity(CapacityPolicy::Fail);
    // Small batch: HBM wins on bandwidth.
    let small = Workload::one_k_one_k(2);
    let rh = hbm.run(&m, &small);
    let rl = lpddr.run(&m, &small);
    assert!(!rh.oom && !rl.oom);
    assert!(
        rh.throughput > rl.throughput,
        "HBM should win small batches"
    );
    // Large batch: HBM OOMs, LPDDR keeps going (Figure 4b).
    let large = Workload::one_k_one_k(16);
    assert!(hbm.run(&m, &large).oom);
    assert!(!lpddr.run(&m, &large).oom);
}

#[test]
fn fig05_kv_dominates_memory_at_scale() {
    let m = ModelConfig::llama2_13b();
    let weights = m.weight_bytes(16.0) as f64;
    let kv_256 = (256u64 * 2048 * m.kv_bytes_per_token(16.0)) as f64;
    let share = kv_256 / (kv_256 + weights);
    assert!(share > 0.85, "KV share at batch 256: {share}");
}

#[test]
fn fig11_oaken_lpddr_wins_at_batch_256() {
    let m = ModelConfig::llama2_13b();
    let w = Workload::one_k_one_k(256);
    let oaken = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken()).run(&m, &w);
    for sys in [
        SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::fp16()),
        SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::kvquant()),
        SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::kivi()),
        SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::qserve()),
        SystemModel::new(AcceleratorSpec::tender(), QuantPolicy::tender()),
        SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16()),
    ] {
        let r = sys.run(&m, &w);
        assert!(
            oaken.throughput > r.throughput,
            "{} ({}) should trail Oaken ({})",
            sys.name(),
            r.throughput,
            oaken.throughput
        );
    }
}

#[test]
fn fig12b_asic_hides_quantization_gpu_does_not() {
    let m = ModelConfig::llama2_7b();
    let asic = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken())
        .generation_iteration(&m, 64, 1536);
    let gpu = SystemModel::new(AcceleratorSpec::a100(), QuantPolicy::oaken_gpu())
        .generation_iteration(&m, 64, 1536);
    let asic_frac = (asic.quant_exposed + asic.dequant_exposed) / asic.total();
    let gpu_frac = (gpu.quant_exposed + gpu.dequant_exposed) / gpu.total();
    assert!(asic_frac < 0.06, "ASIC exposure {asic_frac}");
    assert!(gpu_frac > asic_frac * 2.0, "GPU exposure {gpu_frac}");
}

#[test]
fn fig13_lpddr_reaches_32k_hbm_does_not() {
    let m = ModelConfig::llama2_13b();
    let w32k = Workload {
        batch: 16,
        input_len: 16384,
        output_len: 16384,
    };
    let hbm = SystemModel::new(AcceleratorSpec::oaken_hbm(), QuantPolicy::oaken())
        .with_capacity(CapacityPolicy::Fail)
        .run(&m, &w32k);
    let lpddr = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken())
        .with_capacity(CapacityPolicy::Fail)
        .run(&m, &w32k);
    assert!(hbm.oom, "80 GB cannot hold 16 × 32K quantized KV + weights");
    assert!(!lpddr.oom, "256 GB should");
}

#[test]
fn fig14_trace_shapes() {
    let m = ModelConfig::llama2_13b();
    let oaken = SystemModel::new(AcceleratorSpec::oaken_lpddr(), QuantPolicy::oaken());
    let lpu = SystemModel::new(AcceleratorSpec::lpu(), QuantPolicy::fp16());
    let gain = |spec: &TraceSpec| {
        let reqs = synthesize_requests(spec, 64, 3);
        simulate_trace(&oaken, &m, &reqs, 32).gen_throughput
            / simulate_trace(&lpu, &m, &reqs, 32).gen_throughput
    };
    assert!(gain(&TraceSpec::burstgpt()) > gain(&TraceSpec::conversation()));
}

#[test]
fn table3_rows_cover_group_counts() {
    let rows = AblationQuantizer::paper_rows();
    let counts: Vec<usize> = rows.iter().map(|r| r.num_groups()).collect();
    assert!(counts.contains(&2));
    assert!(counts.contains(&3));
    assert!(counts.contains(&4));
    assert!(counts.contains(&5));
    for r in &rows {
        assert!((r.outlier_fraction() - 0.10).abs() < 1e-9, "{}", r.label);
    }
}

#[test]
fn table4_area_and_power() {
    let area = AreaModel::tsmc28();
    assert!((area.oaken_overhead_percent() - 8.21).abs() < 2.0);
    let p = PowerModel::oaken_lpddr().total_w(256, area.core_mm2());
    assert!(p < 400.0, "below the A100 TDP");
}
