//! What the forward pass sees of a KV store, and the storage under it.
//!
//! The model writes each token's K/V rows through a [`BatchKvCache`] and
//! attention reads the (possibly lossy) cached rows back, so quantization
//! error propagates through attention into the logits exactly as it would
//! on real hardware. There is one store: [`crate::PagedKvPool`], whose
//! every `(sequence, layer, kind)` keeps its rows in a `KindSlot`. The
//! serving engine drives it through [`crate::PoolBatchView`]; a
//! [`crate::Session`] drives the same view over a one-sequence pool
//! (`SeqStore`), so every accuracy and figure number is measured on the
//! store that serves.
//!
//! # Incremental storage
//!
//! Decode is append-only: each generated token contributes one K and one V
//! row per layer, and attention then reads the whole prefix. Oaken's
//! hardware engine (§5.2) therefore quantizes each row **once, when it is
//! written**, and the read path is a pure stream of already-encoded pages.
//! A slot mirrors that architecture: it asks the quantizer for a
//! [`KvRowStream`] and, when one is available (token-granular methods —
//! Oaken, FP16, Atom, QServe, Tender), each append is O(d). A stream with
//! an encoded form (Oaken) keeps the row only encoded, whichever
//! [`KernelMode`] reads it, in its one [`EncodedStore`], which the stream
//! lends out ([`KvRowStream::encoded_rows`]) and every read goes through:
//! the fused kernel reads it in place, an exact reader's dequantized view
//! is decoded from it on read ([`EncodedStore::decode_into`], only the
//! rows the view does not hold yet), and the pool charges each row's
//! [`row_payload`](EncodedStore::row_payload). Adopted rows — a trie
//! block's shared segments and page-form rows, a rank's channels of a
//! row — are written into it ([`KvRowStream::encoded_rows_mut`]). Any
//! other stream appends
//! the row's dequantized image to the view as it quantizes it, and is
//! charged the quantizer's nominal
//! [`effective_bits`](KvQuantizer::effective_bits).
//! Either way a full decode of `n` tokens costs O(n·d) quantization work
//! instead of the O(n²·d) of re-quantizing the prefix on every read.
//! Exact f32 rows append to the view in place: one copy, no sync.
//!
//! # Per-channel fallback semantics
//!
//! Methods that need statistics over the whole prefix (KIVI and KVQuant:
//! per-channel key scales, whole-tensor topK thresholds, sliding FP16
//! residual windows) cannot append rows immutably; they return no stream
//! and the slot falls back to recomputation: exact rows are retained and
//! the quantized view of a stale slot is **fully re-materialized on read**
//! via [`KvQuantizer::roundtrip_matrix`]. The recomputed scales see the
//! complete prefix rather than frozen per-block statistics, which is mildly
//! *optimistic* for those baselines — the approximation favours them,
//! never Oaken. A quantizer whose `row_stream` answers `None` takes this
//! path for any method, which is how the streaming proptests build their
//! recompute reference.
//!
//! Calibration-based streaming methods (Atom, QServe, Tender) freeze their
//! channel order / smoothing scales / group scales after the first
//! `calib_rows` tokens; during that warm-up the stream recomputes its
//! (tiny) view on each append, after which appends never rewrite history.
//! Streams are bit-exact with the batch path on every prefix — enforced by
//! the property tests in `tests/props.rs`.

use crate::config::ModelConfig;
use crate::pool::{PagedKvPool, PoolBatchView, SeqId, ShardReads};
use oaken_core::{EncodedStore, KvKind, KvQuantizer, KvRowStream, PackedRows, StoreSegment};
use std::sync::Arc;

/// Which attention kernel reads a quantized cache — a read-side choice
/// only: how rows are stored does not depend on it. A stream with an
/// encoded form (Oaken) holds each row once, encoded, in its stream's
/// store ([`EncodedStore`], larger than the charged payload by the
/// read-side decode caches; see
/// [`crate::PagedKvPool::held_kv_bytes`]) in either mode, and sealed trie
/// blocks share the same store segments.
///
/// * [`Exact`](KernelMode::Exact) — attention runs the exact kernels over
///   dequantized f32 views, each decoded from the stream when it is read
///   (only the rows the view does not hold yet): the bit-exactness
///   reference, bit-identical to dequantizing each row as it is written.
/// * [`Fused`](KernelMode::Fused) — attention runs the quantized-domain
///   kernel ([`crate::attention::attend_segments_fused_into`]) straight
///   over the streams' stores: no f32 image of a row is materialized,
///   and one sweep over a sequence's rows serves a whole prefill chunk.
///   The numeric contract is SQNR-bounded against `Exact` (see
///   `oaken_core::kernel`), not bit-exact.
///
/// Methods without an encoded form (every non-Oaken baseline) silently
/// keep their exact path under `Fused`; the mode is a capability request,
/// not a guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// f32 views decoded on read + exact kernels (bit-exact reference).
    #[default]
    Exact,
    /// Quantized-domain kernels over the encoded rows.
    Fused,
}

impl KernelMode {
    /// Parses a CLI spelling (`"exact"` / `"fused"`, case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("exact") {
            Some(KernelMode::Exact)
        } else if s.eq_ignore_ascii_case("fused") {
            Some(KernelMode::Fused)
        } else {
            None
        }
    }

    /// Stable lowercase label for logs and reports.
    pub fn label(&self) -> &'static str {
        match self {
            KernelMode::Exact => "exact",
            KernelMode::Fused => "fused",
        }
    }
}

/// A KV cache serving *multiple concurrent sequences*, addressed by a
/// dense batch `slot` index. This is the storage interface the batched
/// forward pass ([`crate::Model::forward_batch`]) drives: slot `i` is the
/// `i`-th sequence of the current iteration's batch.
///
/// [`crate::PoolBatchView`] is the implementation: the serving engine's
/// batch over its pool, and [`crate::Session`]'s batch of one —
/// so the batched engine and the single-sequence path execute identical
/// code.
pub trait BatchKvCache {
    /// Appends a run of `slot`'s consecutive steps to `layer`: their K and
    /// V vectors, `ks[i]` and `vs[i]` the `i`-th step's, in order — one
    /// call per slot run of an iteration, so the store can take a prompt
    /// chunk as one run.
    fn append(&mut self, slot: usize, layer: usize, ks: &[Vec<f32>], vs: &[Vec<f32>]);

    /// Number of cached tokens for `(slot, layer)`.
    fn seq_len(&self, slot: usize, layer: usize) -> usize;

    /// What attention reads for `layer`: per KV shard of this cache (one
    /// per tensor-parallel rank, rank order; a lone shard for an unsharded
    /// cache), per `(slot, queries)` run in order, the encoded tensors of a
    /// slot on the fused read path, its dequantized views otherwise — all
    /// borrowed together, so one pass over the iteration's runs attends in
    /// place with no copy — and the runs grouped by the prefix-trie blocks
    /// their sequences share ([`ShardReads::groups`]), which the fused
    /// kernel sweeps once for the whole group. `queries` is how many query
    /// tokens the caller serves from the borrow — the steps of the run that
    /// attend, whose rows are the newest `queries` the slot holds (a run's
    /// dead steps are appended but not counted; a run with none attending
    /// is not listed); backends use it for read accounting only.
    fn read_runs(&mut self, layer: usize, runs: &[(usize, usize)]) -> Vec<ShardReads<'_>>;

    /// Whether an append only *extends* the dequantized views — rows
    /// already materialized are never rewritten by later appends.
    ///
    /// This is the gate for the batched forward pass: when it holds, the
    /// forward pass may append a whole iteration's rows first and attend
    /// afterwards with each step limited to its own causal length, with
    /// bit-identical results to the serial append-then-attend
    /// interleaving. It holds
    /// for exact f32 storage and for every streaming quantizer (the
    /// [`KvRowStream`] contract); it does **not** hold for the
    /// recompute-on-read fallback (KIVI/KVQuant re-derive scales over the
    /// whole prefix), where the forward pass falls back to the serial
    /// interleaving.
    fn append_only_views(&self) -> bool;

    /// Whether this cache's shards must agree on quantization scales per
    /// appended row — a quantized pool, whose whole-row min/max the
    /// forward pass accounts as one scale sync per K and V row (free at
    /// one rank).
    fn syncs_row_scales(&self) -> bool;
}

/// Where a [`KindSlot`] keeps its rows.
pub(crate) enum SlotRows {
    /// Exact f32 storage: rows append to the slot's view in place, its
    /// one copy.
    F32,
    /// A quantizer's row stream: each row is quantized once on append and
    /// its encoded form kept by the stream; the view holds the dequantized
    /// image — for a stream with an encoded form, only what an exact
    /// reader asked for.
    Stream(Box<dyn KvRowStream>),
    /// The recompute fallback of a quantizer without a row stream: the
    /// exact rows, from which a stale view (shorter than them) is
    /// re-quantized whole on read.
    Recompute(Vec<f32>),
}

/// Storage of one `(sequence, layer, kind)` of a [`PagedKvPool`]: its
/// rows, and the dequantized view attention reads.
pub(crate) struct KindSlot {
    pub(crate) storage: SlotRows,
    /// Dequantized `[rows × d]` view. For a stream with an encoded form
    /// this stays empty (or short) — rows live only in the stream's
    /// encoded state and [`KindSlot::sync`] decodes the missing ones when
    /// an exact reader asks.
    pub(crate) view: Vec<f32>,
    pub(crate) rows: usize,
}

impl KindSlot {
    /// An empty slot for `d`-wide `(layer, kind)` rows: f32 without a
    /// quantizer, else the quantizer's row stream or, lacking one, the
    /// recompute fallback.
    pub(crate) fn new(
        quantizer: Option<&dyn KvQuantizer>,
        d: usize,
        layer: usize,
        kind: KvKind,
    ) -> Self {
        let storage = match quantizer {
            None => SlotRows::F32,
            Some(q) => q
                .row_stream(d, layer, kind)
                .map_or(SlotRows::Recompute(Vec::new()), SlotRows::Stream),
        };
        Self {
            storage,
            view: Vec::new(),
            rows: 0,
        }
    }

    /// The slot's row stream, when it has one.
    pub(crate) fn stream(&self) -> Option<&dyn KvRowStream> {
        match &self.storage {
            SlotRows::Stream(stream) => Some(&**stream),
            _ => None,
        }
    }

    /// The slot's encoded rows, when its stream keeps them.
    pub(crate) fn encoded_rows(&self) -> Option<&EncodedStore> {
        self.stream()?.encoded_rows()
    }

    /// The slot's encoded rows, to write.
    ///
    /// # Panics
    ///
    /// Panics unless the slot's stream keeps its rows encoded.
    fn encoded_rows_mut(&mut self) -> &mut EncodedStore {
        let SlotRows::Stream(stream) = &mut self.storage else {
            panic!("encoded rows are adopted only by streams");
        };
        (stream.encoded_rows_mut()).expect("a stream with an encoded form adopts encoded rows")
    }

    pub(crate) fn append(&mut self, row: &[f32]) {
        self.rows += 1;
        match &mut self.storage {
            SlotRows::F32 => self.view.extend_from_slice(row),
            SlotRows::Stream(stream) => {
                if !stream.append_row_encoded(row) {
                    stream.append_row(row, &mut self.view);
                }
            }
            SlotRows::Recompute(exact) => exact.extend_from_slice(row),
        }
    }

    /// Appends rows already encoded at this slot's width — a sealed trie
    /// block's rows past its last segment edge, or a rank shard's
    /// channels of a row encoded once at full width — to the slot's
    /// stream.
    pub(crate) fn adopt(&mut self, rows: &PackedRows) {
        self.encoded_rows_mut().push_rows(rows);
        self.rows += rows.rows();
    }

    /// Holds a trie block's sealed segments as the stream's segments
    /// `first ..`, by reference
    /// ([`EncodedStore::share_segments`]): appended at a segment edge on
    /// adoption, swapped for the slot's own equal ones on a late-dedup
    /// seal.
    pub(crate) fn share(&mut self, first: usize, segments: &[Arc<StoreSegment>]) {
        let store = self.encoded_rows_mut();
        store.share_segments(first, segments);
        self.rows = store.len();
    }

    /// The sealed segments the slot's stream holds (none without an
    /// encoded form).
    pub(crate) fn segments(&self) -> &[Arc<StoreSegment>] {
        self.encoded_rows().map_or(&[], EncodedStore::segments)
    }

    /// Heap bytes the slot holds: its stream's (or its exact rows') and
    /// its view's buffers.
    pub(crate) fn held_bytes(&self) -> usize {
        let f32s = |v: &Vec<f32>| v.capacity() * std::mem::size_of::<f32>();
        let rows = match &self.storage {
            SlotRows::F32 => 0,
            SlotRows::Stream(stream) => stream.held_bytes(),
            SlotRows::Recompute(exact) => f32s(exact),
        };
        rows + f32s(&self.view)
    }

    /// Brings `view` up to date with every appended row — the one sync
    /// behind every dequantized read. The recompute fallback
    /// re-materializes a stale view from its exact rows through
    /// `quantizer`; a stream with an encoded form decodes the rows its
    /// view is missing (bit-identical to dequantizing them as they were
    /// written); f32 slots and the other streams are already current,
    /// their appends maintain the view.
    ///
    /// # Panics
    ///
    /// Panics if the view is short but the stream cannot decode: a stream
    /// without an encoded form appends to the view itself, so its view is
    /// never short.
    pub(crate) fn sync(
        &mut self,
        quantizer: Option<&dyn KvQuantizer>,
        d: usize,
        layer: usize,
        kind: KvKind,
    ) {
        match &self.storage {
            SlotRows::F32 => {}
            SlotRows::Stream(stream) => {
                let have = self.view.len() / d.max(1);
                if have < self.rows {
                    let stored = stream.encoded_rows().expect("short views are encoded");
                    stored.decode_into(have..self.rows, &mut self.view);
                }
            }
            SlotRows::Recompute(exact) => {
                if self.view.len() != exact.len() {
                    let q = quantizer.expect("recompute slots exist only with a quantizer");
                    self.view = q.roundtrip_matrix(exact, self.rows, d, layer, kind);
                }
            }
        }
    }

    /// Clears the slot's row history (keeping buffers and any frozen
    /// stream calibration) so a retired sequence's storage can be reused
    /// by a new one without reallocating.
    pub(crate) fn reset_for_reuse(&mut self) {
        match &mut self.storage {
            SlotRows::F32 => {}
            SlotRows::Stream(stream) => stream.reset(),
            SlotRows::Recompute(exact) => exact.clear(),
        }
        self.view.clear();
        self.rows = 0;
    }

    /// The slot's encoded tensor, when its stream keeps encoded rows
    /// covering every appended row.
    pub(crate) fn encoded(&self) -> Option<&EncodedStore> {
        let store = self.encoded_rows()?;
        (store.len() == self.rows).then_some(store)
    }
}

/// Index of `kind` within a `[KindSlot; 2]` pair: keys first.
pub(crate) fn slot_index(kind: KvKind) -> usize {
    match kind {
        KvKind::Key => 0,
        KvKind::Value => 1,
    }
}

/// Pages per class (dense slab, sparse log) a [`SeqStore`] spreads its
/// worst case over.
const STORE_PAGES: usize = 16;

/// One sequence on a one-rank [`PagedKvPool`]: the store a
/// [`crate::Session`] runs on, driven through the engine's
/// [`PoolBatchView`] with the sequence as slot 0.
///
/// Pages are pure accounting here, so the pool is sized for the worst case
/// and never refuses an append: `max_seq_len` tokens of every layer, each
/// `(layer, K/V)` row at most 64 bits per element plus a 64-byte header
/// dense and one byte per channel sparse. A page holds
/// `⌈rows / STORE_PAGES⌉` such rows, so each class fits in `STORE_PAGES`
/// pages and one append's page bound asks at most three more.
pub(crate) struct SeqStore {
    pub(crate) pool: PagedKvPool,
    pub(crate) seq: [SeqId; 1],
}

impl SeqStore {
    /// An empty store for `cfg`'s geometry: exact f32 rows for `None`, else
    /// `quantizer`'s.
    pub(crate) fn new(cfg: &ModelConfig, quantizer: Option<Arc<dyn KvQuantizer>>) -> Self {
        let rows = cfg.max_seq_len.max(1) * cfg.num_layers * 2;
        let page_size = rows.div_ceil(STORE_PAGES) * (9 * cfg.kv_dim() + 64);
        let pages = 2 * STORE_PAGES as u32 + 4;
        let mut pool = PagedKvPool::for_model(cfg, quantizer, pages, page_size);
        let seq = [pool.alloc_seq()];
        Self { pool, seq }
    }

    /// Runs `pass` over the store's batch view.
    pub(crate) fn with_view<R>(&mut self, pass: impl FnOnce(&mut PoolBatchView<'_>) -> R) -> R {
        pass(&mut PoolBatchView::new(&mut self.pool, &self.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pool::PagedKvPool;
    use oaken_core::OnlineCost;

    /// A deliberately terrible quantizer: rounds to integers.
    struct RoundingQuantizer;

    impl KvQuantizer for RoundingQuantizer {
        fn name(&self) -> &'static str {
            "round"
        }
        fn roundtrip_matrix(
            &self,
            data: &[f32],
            _rows: usize,
            _d: usize,
            _layer: usize,
            _kind: KvKind,
        ) -> Vec<f32> {
            data.iter().map(|x| x.round()).collect()
        }
        fn effective_bits(&self, _rows: usize, _d: usize) -> f64 {
            8.0
        }
        fn online_cost(&self) -> OnlineCost {
            OnlineCost::free()
        }
    }

    /// `q` with its row streams withheld: a pool over it takes the
    /// recompute fallback for every tensor.
    struct Recompute(Arc<dyn KvQuantizer>);

    impl KvQuantizer for Recompute {
        fn name(&self) -> &'static str {
            self.0.name()
        }
        fn roundtrip_matrix(
            &self,
            data: &[f32],
            rows: usize,
            d: usize,
            layer: usize,
            kind: KvKind,
        ) -> Vec<f32> {
            self.0.roundtrip_matrix(data, rows, d, layer, kind)
        }
        fn effective_bits(&self, rows: usize, d: usize) -> f64 {
            self.0.effective_bits(rows, d)
        }
        fn online_cost(&self) -> OnlineCost {
            self.0.online_cost()
        }
    }

    /// A one-head geometry of `layers` layers and `d`-wide K/V rows.
    fn geometry(layers: usize, d: usize) -> ModelConfig {
        let mut cfg = ModelConfig::llama2_7b().proxy(layers, d);
        cfg.num_heads = 1;
        cfg.num_kv_heads = 1;
        cfg
    }

    /// A pool over `quantizer` holding one fresh sequence.
    fn lone_seq(
        layers: usize,
        d: usize,
        quantizer: Option<Arc<dyn KvQuantizer>>,
    ) -> (PagedKvPool, SeqId) {
        let mut pool = PagedKvPool::for_model(&geometry(layers, d), quantizer, 64, 4096);
        let seq = pool.alloc_seq();
        (pool, seq)
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn exact_cache_roundtrips() {
        let (mut pool, s) = lone_seq(2, 4, None);
        pool.append(s, 0, &[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0])
            .unwrap();
        pool.append(s, 0, &[9.0; 4], &[10.0; 4]).unwrap();
        assert_eq!(pool.seq_len(s, 0), 2);
        assert_eq!(pool.seq_len(s, 1), 0);
        assert_eq!(&pool.keys(s, 0)[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&pool.values(s, 0)[4..], &[10.0; 4]);
    }

    /// The recompute fallback (a quantizer with no row stream) applies
    /// the quantizer to what it reads.
    #[test]
    fn quantized_cache_applies_quantizer() {
        let (mut pool, s) = lone_seq(1, 2, Some(Arc::new(RoundingQuantizer)));
        pool.append(s, 0, &[1.4, 2.6], &[0.2, -0.7]).unwrap();
        assert_eq!(pool.keys(s, 0), &[1.0, 3.0]);
        assert_eq!(pool.values(s, 0), &[0.0, -1.0]);
    }

    #[test]
    fn quantized_cache_refreshes_after_append() {
        let (mut pool, s) = lone_seq(1, 1, Some(Arc::new(RoundingQuantizer)));
        pool.append(s, 0, &[1.4], &[1.4]).unwrap();
        assert_eq!(pool.keys(s, 0), &[1.0]);
        pool.append(s, 0, &[2.6], &[2.6]).unwrap();
        assert_eq!(pool.keys(s, 0), &[1.0, 3.0]);
        assert_eq!(pool.seq_len(s, 0), 2);
    }

    /// Withholding the row streams puts every slot on the recompute path.
    #[test]
    fn recompute_mode_disables_streams() {
        use oaken_baselines_test_helpers::oaken_quantizer;
        let q: Arc<dyn KvQuantizer> = Arc::new(oaken_quantizer(16, 1));
        let streams = |(pool, s): &(PagedKvPool, SeqId)| {
            let slots = pool.slots(0, *s).iter().flatten();
            slots
                .map(|slot| slot.stream().is_some())
                .collect::<Vec<_>>()
        };
        assert_eq!(streams(&lone_seq(1, 16, Some(q.clone()))), [true, true]);
        let recompute = lone_seq(1, 16, Some(Arc::new(Recompute(q))));
        assert_eq!(streams(&recompute), [false, false]);
        assert!(
            !recompute.0.prefix_sharing(),
            "recomputed views are not shared"
        );
    }

    #[test]
    fn incremental_and_recompute_views_are_bit_identical_for_oaken() {
        use oaken_baselines_test_helpers::{oaken_quantizer, test_row};
        let d = 32;
        let q: Arc<dyn KvQuantizer> = Arc::new(oaken_quantizer(d, 2));
        let (mut inc, a) = lone_seq(2, d, Some(q.clone()));
        let (mut rec, b) = lone_seq(2, d, Some(Arc::new(Recompute(q))));
        for t in 0..20 {
            for layer in 0..2 {
                let k = test_row(d, t * 7 + layer as u64);
                let v = test_row(d, t * 13 + layer as u64 + 99);
                inc.append(a, layer, &k, &v).unwrap();
                rec.append(b, layer, &k, &v).unwrap();
            }
            for layer in 0..2 {
                let (ik, rk) = (bits(inc.keys(a, layer)), bits(rec.keys(b, layer)));
                assert_eq!(ik, rk, "keys diverged at token {t} layer {layer}");
                let (iv, rv) = (bits(inc.values(a, layer)), bits(rec.values(b, layer)));
                assert_eq!(iv, rv, "values diverged at token {t} layer {layer}");
            }
        }
    }

    /// Tiny helpers building a profiled Oaken quantizer for cache tests.
    mod oaken_baselines_test_helpers {
        use oaken_core::{KvKind, OakenConfig, OakenQuantizer, OfflineProfiler};

        pub fn test_row(d: usize, seed: u64) -> Vec<f32> {
            (0..d)
                .map(|i| {
                    let u = ((i as u64)
                        .wrapping_mul(0x9E3779B97F4A7C15)
                        .wrapping_add(seed)
                        >> 33) as f32
                        / (1u64 << 31) as f32;
                    let base = (u - 0.5) * 6.0;
                    match i % 17 {
                        0 => base * 9.0,
                        1 => base * 0.02,
                        _ => base,
                    }
                })
                .collect()
        }

        pub fn oaken_quantizer(d: usize, layers: usize) -> OakenQuantizer {
            let config = OakenConfig::default();
            let mut p = OfflineProfiler::new(config.clone(), layers);
            for s in 0..24 {
                for layer in 0..layers {
                    for kind in KvKind::ALL {
                        p.observe(layer, kind, &test_row(d.max(64), s * 3 + layer as u64));
                    }
                }
            }
            OakenQuantizer::new(config, p.try_finish().unwrap())
        }
    }

    /// Exact f32 and streaming pools take the append-then-attend batch
    /// path; only the recompute fallback interleaves.
    #[test]
    fn append_only_views_follow_the_backend() {
        use oaken_baselines_test_helpers::oaken_quantizer;
        let q: Arc<dyn KvQuantizer> = Arc::new(oaken_quantizer(16, 1));
        let append_only =
            |q: Option<Arc<dyn KvQuantizer>>| lone_seq(1, 16, q).0.append_only_views();
        assert!(append_only(None));
        assert!(append_only(Some(q.clone())));
        assert!(!append_only(Some(Arc::new(Recompute(q)))));
        assert!(!append_only(Some(Arc::new(RoundingQuantizer))));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn append_checks_width() {
        let (mut pool, s) = lone_seq(1, 4, None);
        let _ = pool.append(s, 0, &[1.0], &[1.0]);
    }

    #[test]
    fn kernel_mode_parses_and_labels() {
        assert_eq!(KernelMode::parse("exact"), Some(KernelMode::Exact));
        assert_eq!(KernelMode::parse("FUSED"), Some(KernelMode::Fused));
        assert_eq!(KernelMode::parse("turbo"), None);
        assert_eq!(KernelMode::Fused.label(), "fused");
        assert_eq!(KernelMode::default(), KernelMode::Exact);
    }

    /// A fused pool keeps rows encoded-only (no f32 view resident),
    /// exposes them through `encoded_kv`, and still produces the exact
    /// view bit-identically when an exact reader asks.
    #[test]
    fn fused_mode_skips_views_and_decodes_lazily() {
        use oaken_baselines_test_helpers::{oaken_quantizer, test_row};
        let d = 32;
        let q: Arc<dyn KvQuantizer> = Arc::new(oaken_quantizer(d, 1));
        let (mut exact, e) = lone_seq(1, d, Some(q.clone()));
        let mut fused = PagedKvPool::for_model(&geometry(1, d), Some(q), 64, 4096);
        assert_eq!(fused.set_kernel_mode(KernelMode::Fused), KernelMode::Fused);
        let f = fused.alloc_seq();
        for t in 0..12u64 {
            let (k, v) = (test_row(d, t * 3 + 1), test_row(d, t * 5 + 2));
            exact.append(e, 0, &k, &v).unwrap();
            fused.append(f, 0, &k, &v).unwrap();
        }
        // No dequantized image resident; encoded rows fully exposed.
        assert!(fused.slots(0, f)[0].iter().all(|s| s.view.is_empty()));
        let (ek, ev) = fused.encoded_kv(f, 0).expect("fused pool exposes encoding");
        assert_eq!((ek.len(), ev.len()), (12, 12));
        assert!(exact.encoded_kv(e, 0).is_none());
        // Lazy decode reproduces the exact views bit-for-bit.
        assert_eq!(bits(exact.keys(e, 0)), bits(fused.keys(f, 0)));
        assert_eq!(bits(exact.values(e, 0)), bits(fused.values(f, 0)));
        // And appends after a lazy decode keep both halves consistent.
        let (k, v) = (test_row(d, 777), test_row(d, 778));
        exact.append(e, 0, &k, &v).unwrap();
        fused.append(f, 0, &k, &v).unwrap();
        assert_eq!(bits(exact.keys(e, 0)), bits(fused.keys(f, 0)));
    }
}
