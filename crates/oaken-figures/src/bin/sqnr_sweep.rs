//! Extension experiment: signal-to-quantization-noise ratio of every
//! method on live proxy-model KV tensors — the elementwise view that
//! underlies the Table 2 accuracy ordering.

use oaken_baselines::all_baselines;
use oaken_core::{KvKind, KvQuantizer, OakenConfig};
use oaken_eval::{profile_oaken, sqnr_db};
use oaken_figures::{banner, f, row};
use oaken_model::{ExactCache, Model, ModelConfig};
use std::cell::RefCell;
use std::rc::Rc;

fn main() {
    banner(
        "SQNR sweep",
        "per-method KV reconstruction SQNR on the Llama2-7B proxy (dB, higher is better)",
    );
    let model = Model::synthetic(ModelConfig::llama2_7b().proxy(4, 64), 77);
    let oaken = profile_oaken(&model, OakenConfig::default(), 10, 48, 3);

    // Collect a [tokens × kv_dim] matrix per (layer, kind).
    let kv_dim = model.config().kv_dim();
    let layers = model.config().num_layers;
    let store: Rc<RefCell<Vec<Vec<f32>>>> = Rc::new(RefCell::new(vec![Vec::new(); layers * 2]));
    {
        let mut session = model.session(Box::new(ExactCache::new()));
        let s = Rc::clone(&store);
        session.set_kv_observer(Box::new(move |l, k, v| {
            let slot = l * 2 + usize::from(k == KvKind::Value);
            s.borrow_mut()[slot].extend_from_slice(v);
        }));
        for t in 0..64u32 {
            session.advance((t * 37 + 11) % 256);
        }
    }
    let store = store.borrow();

    let mut methods: Vec<Box<dyn KvQuantizer>> = all_baselines();
    methods.push(Box::new(oaken));
    row(
        &[&"method", &"keys SQNR", &"values SQNR", &"eff-bits"],
        &[9, 10, 12, 9],
    );
    for m in &methods {
        let mut acc = [0.0f64; 2]; // keys, values
        let mut n = [0usize; 2];
        for l in 0..layers {
            for (ki, kind) in KvKind::ALL.iter().enumerate() {
                let data = &store[l * 2 + ki];
                let rows = data.len() / kv_dim;
                if rows == 0 {
                    continue;
                }
                let back = m.roundtrip_matrix(data, rows, kv_dim, l, *kind);
                let s = sqnr_db(data, &back);
                if s.is_finite() {
                    acc[ki] += s;
                    n[ki] += 1;
                }
            }
        }
        let keys = if n[0] > 0 {
            acc[0] / n[0] as f64
        } else {
            f64::INFINITY
        };
        let values = if n[1] > 0 {
            acc[1] / n[1] as f64
        } else {
            f64::INFINITY
        };
        let eff = m.effective_bits(1024, 4096);
        let show = |x: f64| {
            if x.is_finite() {
                f(x, 1)
            } else {
                ">60".to_owned()
            }
        };
        row(
            &[&m.name(), &show(keys), &show(values), &f(eff, 2)],
            &[9, 10, 12, 9],
        );
    }
    println!();
    println!("Expected shape: fp16 ≫ everything; Oaken and KVQuant lead the");
    println!("~4.8-bit class (outlier isolation); Tender trails (power-of-two");
    println!("per-group scales). SQNR ordering predicts the Table 2 ordering.");
}
