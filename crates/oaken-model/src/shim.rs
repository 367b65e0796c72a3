//! Single-sequence cache handles kept only for the `bench/` workspace,
//! which still names them. They are thin wrappers over the one-sequence
//! store a [`crate::Session`] runs on — there is no second storage
//! implementation — so what `bench/` measures through them is the pool
//! that serves. Nothing else in the workspace may name them (CI checks);
//! they go once `bench/` moves off them.

use crate::cache::{BatchKvCache, KernelMode, SeqStore};
use crate::config::ModelConfig;
use crate::pool::ShardReads;
use oaken_core::KvQuantizer;
use std::sync::Arc;

/// Tokens a reset store holds: at least the longest sequence `bench/`
/// feeds one (its longest model's `max_seq_len`).
const SHIM_TOKENS: usize = 4096;

/// A cache handle whose store [`reset`](KvCacheBackend::reset) builds.
pub trait KvCacheBackend {
    /// Drops any state and builds a fresh store for `num_layers` layers of
    /// `kv_dim`-wide rows.
    fn reset(&mut self, num_layers: usize, kv_dim: usize) {
        let cfg = ModelConfig {
            num_layers,
            d_model: kv_dim,
            num_heads: 1,
            num_kv_heads: 1,
            max_seq_len: SHIM_TOKENS,
            ..ModelConfig::llama2_7b()
        };
        let cache = self.cache_mut();
        cache.store = Some(SeqStore::new(&cfg, cache.quantizer.clone()));
    }

    #[doc(hidden)]
    fn cache(&self) -> &QuantizedCache;

    #[doc(hidden)]
    fn cache_mut(&mut self) -> &mut QuantizedCache;
}

/// A store over a quantizer's rows.
#[derive(Default)]
pub struct QuantizedCache {
    quantizer: Option<Arc<dyn KvQuantizer>>,
    store: Option<SeqStore>,
}

impl QuantizedCache {
    /// A handle over `quantizer`'s rows; [`KvCacheBackend::reset`] builds
    /// the store.
    pub fn new(quantizer: Arc<dyn KvQuantizer>) -> Self {
        Self {
            quantizer: Some(quantizer),
            store: None,
        }
    }

    /// Selects the attention read path after a reset, returning the mode
    /// installed.
    pub fn set_kernel_mode(&mut self, kernel: KernelMode) -> KernelMode {
        self.store_mut().pool.set_kernel_mode(kernel)
    }

    fn store(&self) -> &SeqStore {
        self.store.as_ref().expect("reset the cache before use")
    }

    fn store_mut(&mut self) -> &mut SeqStore {
        self.store.as_mut().expect("reset the cache before use")
    }
}

impl KvCacheBackend for QuantizedCache {
    fn cache(&self) -> &QuantizedCache {
        self
    }

    fn cache_mut(&mut self) -> &mut QuantizedCache {
        self
    }
}

/// A store of exact f32 rows.
#[derive(Default)]
pub struct ExactCache(QuantizedCache);

impl ExactCache {
    /// An f32 handle; [`KvCacheBackend::reset`] builds the store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl KvCacheBackend for ExactCache {
    fn cache(&self) -> &QuantizedCache {
        &self.0
    }

    fn cache_mut(&mut self) -> &mut QuantizedCache {
        &mut self.0
    }
}

/// A reset handle as the one slot (slot 0) of a [`BatchKvCache`], driven
/// through the same pool view as a [`crate::Session`].
pub struct SingleSlot<'a>(pub &'a mut dyn KvCacheBackend);

impl BatchKvCache for SingleSlot<'_> {
    fn append(&mut self, slot: usize, layer: usize, ks: &[Vec<f32>], vs: &[Vec<f32>]) {
        let store = self.0.cache_mut().store_mut();
        store.with_view(|view| view.append(slot, layer, ks, vs));
    }

    fn seq_len(&self, slot: usize, layer: usize) -> usize {
        let store = self.0.cache().store();
        store.pool.seq_len(store.seq[slot], layer)
    }

    fn read_runs(&mut self, layer: usize, runs: &[(usize, usize)]) -> Vec<ShardReads<'_>> {
        let store = self.0.cache_mut().store_mut();
        store.pool.read_runs(&store.seq, layer, runs)
    }

    fn append_only_views(&self) -> bool {
        self.0.cache().store().pool.append_only_views()
    }

    fn syncs_row_scales(&self) -> bool {
        self.0.cache().store().pool.quantized()
    }
}

#[cfg(test)]
mod tests {
    //! Pins the handles to `Session` in exactly `bench/`'s call shapes,
    //! so `token_match_fp32` and its output check keep measuring the
    //! arithmetic `Session` runs until the handles go.

    use super::*;
    use crate::model::{BatchStep, Model};
    use oaken_core::{KvKind, OakenConfig, OakenQuantizer, OfflineProfiler};
    use std::cell::RefCell;
    use std::rc::Rc;

    fn model() -> Model {
        Model::synthetic(ModelConfig::llama2_7b().proxy(2, 32), 42)
    }

    /// Oaken profiled on the model's own K/V rows.
    fn profiled(model: &Model) -> Arc<dyn KvQuantizer> {
        let config = OakenConfig::default();
        let profiler = Rc::new(RefCell::new(OfflineProfiler::new(config.clone(), 2)));
        let mut session = model.session(None);
        let p = Rc::clone(&profiler);
        session.set_kv_observer(Box::new(move |l, kind, v| {
            p.borrow_mut().observe(l, kind, v)
        }));
        session.prefill(&(0..32).map(|i| (i * 71 + 9) % 256).collect::<Vec<u32>>());
        drop(session);
        let thresholds = Rc::try_unwrap(profiler).ok().unwrap().into_inner().finish();
        Arc::new(OakenQuantizer::new(config, thresholds))
    }

    fn steps(tokens: &[u32], from: usize) -> Vec<BatchStep> {
        (tokens.iter().enumerate())
            .map(|(i, &token)| BatchStep {
                slot: 0,
                pos: from + i,
                token,
            })
            .collect()
    }

    fn bits(rows: &[Vec<f32>]) -> Vec<Vec<u32>> {
        (rows.iter())
            .map(|r| r.iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// `verify.rs`'s fused check: reset, then the kernel; one whole-prompt
    /// chunk, then single steps.
    #[test]
    fn fused_handle_matches_a_fused_session() {
        let m = model();
        let q = profiled(&m);
        let cfg = m.config();
        let prompt: Vec<u32> = (0..21).map(|i| (i * 37 + 5) % 256).collect();
        let decode = [17u32, 201, 3, 88];

        let mut cache = QuantizedCache::new(q.clone());
        cache.reset(cfg.num_layers, cfg.kv_dim());
        assert_eq!(cache.set_kernel_mode(KernelMode::Fused), KernelMode::Fused);
        let mut got = m.forward_batch(&mut SingleSlot(&mut cache), &steps(&prompt, 0), None);
        for (i, &t) in decode.iter().enumerate() {
            let step = steps(&[t], prompt.len() + i);
            got.extend(m.forward_batch(&mut SingleSlot(&mut cache), &step, None));
        }

        let mut session = m.session(Some(q));
        assert_eq!(
            session.set_kernel_mode(KernelMode::Fused),
            KernelMode::Fused
        );
        let want: Vec<Vec<f32>> = prompt
            .iter()
            .chain(&decode)
            .map(|&t| session.advance(t))
            .collect();
        assert_eq!(bits(&got), bits(&want));
    }

    /// `layers.rs`'s capture: an f32 handle fed 64-token chunks with an
    /// observer.
    #[test]
    fn exact_handle_matches_an_exact_session_and_observes_its_rows() {
        let m = model();
        let cfg = m.config();
        let tokens: Vec<u32> = (0..150).map(|i| (i * 53 + 11) % 256).collect();

        let mut seen = Vec::new();
        let mut got = Vec::new();
        let mut cache = ExactCache::new();
        cache.reset(cfg.num_layers, cfg.kv_dim());
        for (c, chunk) in tokens.chunks(64).enumerate() {
            let mut observe = |_step: usize, layer: usize, kind: KvKind, row: &[f32]| {
                seen.push((layer, kind, row.to_vec()));
            };
            let step = steps(chunk, c * 64);
            got.extend(m.forward_batch(&mut SingleSlot(&mut cache), &step, Some(&mut observe)));
        }

        let observed = Rc::new(RefCell::new(Vec::new()));
        let mut session = m.session(None);
        let o = Rc::clone(&observed);
        session.set_kv_observer(Box::new(move |layer, kind, row| {
            o.borrow_mut().push((layer, kind, row.to_vec()));
        }));
        let want: Vec<Vec<f32>> = tokens.iter().map(|&t| session.advance(t)).collect();
        assert_eq!(bits(&got), bits(&want));
        // A chunk shows layer `l`'s rows of all its steps before layer
        // `l + 1`'s, one step at a time a token's layers in turn: per
        // `(layer, kind)`, both are the rows in token order.
        let per_tensor = |rows: &[(usize, KvKind, Vec<f32>)]| {
            let mut tensors = vec![Vec::new(); 2 * cfg.num_layers];
            for (layer, kind, row) in rows {
                tensors[2 * layer + usize::from(*kind == KvKind::Value)].push(row.clone());
            }
            tensors.iter().map(|rows| bits(rows)).collect::<Vec<_>>()
        };
        assert_eq!(per_tensor(&seen), per_tensor(&observed.borrow()));
    }
}
