//! Ablation: per-layer (the paper's choice) vs per-head threshold
//! granularity, measured as reconstruction error on live proxy-model KV
//! vectors against the threshold-table cost.

use oaken_baselines::PerHeadProfiler;
use oaken_core::{KvKind, OakenConfig, OakenQuantizer, OfflineProfiler};
use oaken_figures::{banner, f, row};
use oaken_model::{Model, ModelConfig};
use std::cell::RefCell;
use std::rc::Rc;

type KvRow = (usize, KvKind, Vec<f32>);

fn collect_rows(model: &Model, tokens: &[u32]) -> Vec<KvRow> {
    let rows: Rc<RefCell<Vec<KvRow>>> = Rc::new(RefCell::new(Vec::new()));
    {
        let mut session = model.session(None);
        let r = Rc::clone(&rows);
        session.set_kv_observer(Box::new(move |l, k, v| {
            r.borrow_mut().push((l, k, v.to_vec()));
        }));
        for &t in tokens {
            session.advance(t);
        }
    }
    Rc::try_unwrap(rows).expect("observer dropped").into_inner()
}

fn main() {
    banner(
        "Ablation: threshold granularity",
        "per-layer vs per-head thresholds (Llama2-7B proxy)",
    );
    let cfg = ModelConfig::llama2_7b().proxy(4, 64);
    let num_heads = cfg.num_kv_heads;
    let head_dim = cfg.head_dim();
    let layers = cfg.num_layers;
    let model = Model::synthetic(cfg, 4242);

    // Profile both granularities on the same sample prompts.
    let profile_tokens: Vec<u32> = (0..160u32).map(|i| (i * 53 + 17) % 256).collect();
    let config = OakenConfig::default();
    let mut per_layer = OfflineProfiler::new(config.clone(), layers);
    let mut per_head = PerHeadProfiler::new(config.clone(), layers, num_heads, head_dim);
    for (l, k, v) in collect_rows(&model, &profile_tokens) {
        per_layer.observe(l, k, &v);
        per_head.observe(l, k, &v);
    }
    let q_layer = OakenQuantizer::new(config.clone(), per_layer.finish());
    let q_head = per_head.finish();

    // Evaluate reconstruction error on unseen prompts.
    let eval_tokens: Vec<u32> = (0..96u32).map(|i| (i * 97 + 5) % 256).collect();
    let mut mse_layer = 0.0f64;
    let mut mse_head = 0.0f64;
    let mut n = 0usize;
    for (l, k, v) in collect_rows(&model, &eval_tokens) {
        let fv = q_layer.quantize_vector(&v, l, k).expect("profiled layer");
        let back = q_layer.dequantize_vector(fv.row(0), l, k).expect("decodes");
        mse_layer += v
            .iter()
            .zip(&back)
            .map(|(a, b)| f64::from(a - b).powi(2))
            .sum::<f64>();
        let back = q_head.roundtrip_vector(&v, l, k).expect("head layout");
        mse_head += v
            .iter()
            .zip(&back)
            .map(|(a, b)| f64::from(a - b).powi(2))
            .sum::<f64>();
        n += v.len();
    }
    mse_layer /= n as f64;
    mse_head /= n as f64;

    row(
        &[&"granularity", &"table entries", &"KV MSE"],
        &[12, 14, 12],
    );
    row(
        &[&"per-layer", &(layers * 2), &f(mse_layer, 6)],
        &[12, 14, 12],
    );
    row(
        &[&"per-head", &q_head.table_entries(), &f(mse_head, 6)],
        &[12, 14, 12],
    );
    println!();
    println!(
        "Per-head reduces KV reconstruction MSE by {:.1}% at {}x the",
        100.0 * (1.0 - mse_head / mse_layer),
        num_heads
    );
    println!("threshold-table storage — the paper's per-layer choice trades a");
    println!(
        "small accuracy margin for a {}x smaller threshold register file.",
        num_heads
    );
}
