//! KV cache backends with pluggable quantization.
//!
//! The model writes each generated token's K/V vector through a
//! [`KvCacheBackend`]; attention reads the (possibly lossy) cached
//! matrices back. [`ExactCache`] stores f32 (the FP32 reference);
//! [`QuantizedCache`] routes all storage through any [`KvQuantizer`]
//! (Oaken or a baseline), so quantization error propagates through
//! attention into the logits exactly as it would on real hardware.
//!
//! # Incremental cache design
//!
//! Decode is append-only: each generated token contributes one K and one V
//! row per layer, and attention then reads the whole prefix. Oaken's
//! hardware engine (§5.2) therefore quantizes each row **once, when it is
//! written**, and the read path is a pure stream of already-encoded pages.
//! [`QuantizedCache`] mirrors that architecture: for every `(layer, kind)`
//! it asks the quantizer for a [`KvRowStream`] and, when one is available
//! (token-granular methods — Oaken, FP16, Atom, QServe, Tender), each
//! append is O(d): the row is quantized, its encoded form is retained by
//! the stream, and its dequantized image is appended to a materialized
//! view. Reads return the view as-is — no recomputation, no allocation —
//! so a full decode of `n` tokens costs O(n·d) quantization work instead
//! of the O(n²·d) of re-quantizing the prefix on every read.
//!
//! # Per-channel fallback semantics
//!
//! Methods that need statistics over the whole prefix (KIVI and KVQuant:
//! per-channel key scales, whole-tensor topK thresholds, sliding FP16
//! residual windows) cannot append rows immutably; they return no stream
//! and the cache falls back to the legacy behaviour: exact rows are
//! retained and the quantized view of a dirty layer is **fully
//! re-materialized on read** via [`KvQuantizer::roundtrip_matrix`]. The
//! recomputed scales see the complete prefix rather than frozen per-block
//! statistics, which is mildly *optimistic* for those baselines — the
//! approximation favours them, never Oaken. The same path can be forced
//! for every method with [`QuantizedCache::new_recompute`], which is how
//! the decode-scaling benchmark measures the quadratic path the streaming
//! design eliminates.
//!
//! Calibration-based streaming methods (Atom, QServe, Tender) freeze their
//! channel order / smoothing scales / group scales after the first
//! `calib_rows` tokens; during that warm-up the stream recomputes its
//! (tiny) view on each append, after which appends never rewrite history.
//! Streams are bit-exact with the batch path on every prefix — enforced by
//! the property tests in `tests/props.rs`.

use crate::attention::{EncodedKv, KvRead};
use oaken_core::{KvKind, KvQuantizer, KvRowStream};
use std::sync::Arc;

/// Which attention read path the engine runs against a quantized cache.
///
/// * [`Exact`](KernelMode::Exact) — every append materializes the row's
///   dequantized f32 image and attention runs the exact kernels over the
///   views: the bit-exactness reference, unchanged from before fused
///   kernels existed.
/// * [`Fused`](KernelMode::Fused) — appends keep rows **only in their
///   encoded form** and attention runs the quantized-domain kernel
///   ([`crate::attention::attend_run_fused_into`]) straight over the
///   streams' read plans: resident KV bytes equal the encoded footprint,
///   and one sweep over a sequence's rows serves a whole prefill chunk.
///   The numeric contract is SQNR-bounded against `Exact` (see
///   `oaken_core::kernel`), not bit-exact.
///
/// Methods without an encoded form (every non-Oaken baseline) silently
/// keep their exact path under `Fused`; the mode is a capability request,
/// not a guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// Materialized f32 views + exact kernels (bit-exact reference).
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

/// Storage backend for the per-layer KV cache.
pub trait KvCacheBackend: Send {
    /// Clears all state and prepares storage for `num_layers` layers of
    /// `kv_dim`-wide vectors.
    fn reset(&mut self, num_layers: usize, kv_dim: usize);

    /// Appends the current token's key and value vectors for `layer`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `layer` is out of range or the vector
    /// width disagrees with `kv_dim`.
    fn append(&mut self, layer: usize, k: &[f32], v: &[f32]);

    /// Number of cached tokens for `layer`.
    fn seq_len(&self, layer: usize) -> usize;

    /// Row-major `[seq_len × kv_dim]` view of the cached keys as the
    /// compute engine sees them (dequantized for lossy backends).
    fn keys(&mut self, layer: usize) -> &[f32];

    /// Row-major view of the cached values.
    fn values(&mut self, layer: usize) -> &[f32];

    /// Both views at once, `(keys, values)` — what exact attention reads
    /// in place.
    fn kv_views(&mut self, layer: usize) -> (&[f32], &[f32]);

    /// Mean stored bits per cached element, for capacity accounting.
    fn stored_bits_per_elem(&self) -> f64;

    /// The layer's cached K and V tensors in their **encoded form**, when
    /// this backend runs the fused read path for `layer`. `None` (the
    /// default, and the answer of every purely-f32 backend) sends the
    /// caller to [`keys`](KvCacheBackend::keys) /
    /// [`values`](KvCacheBackend::values) and the exact kernels. Takes
    /// `&self` so both tensors can be borrowed together.
    fn encoded_kv(&self, layer: usize) -> Option<(EncodedKv<'_>, EncodedKv<'_>)> {
        let _ = layer;
        None
    }

    /// Cheap probe: `true` iff [`encoded_kv`](KvCacheBackend::encoded_kv)
    /// would serve `layer`. Split from the read itself so the branch
    /// probe never touches a backend's read accounting.
    fn has_encoded_kv(&self, layer: usize) -> bool {
        self.encoded_kv(layer).is_some()
    }

    /// Requests an attention kernel for this backend, returning the mode
    /// actually installed. The request is a *capability* negotiation, not
    /// a command: backends without a fused read path (the default) ignore
    /// it and stay [`KernelMode::Exact`]. Must be called before any row
    /// is appended.
    fn set_kernel_mode(&mut self, kernel: KernelMode) -> KernelMode {
        let _ = kernel;
        KernelMode::Exact
    }

    /// The backend's installed kernel mode.
    fn kernel_mode(&self) -> KernelMode {
        KernelMode::Exact
    }

    /// Whether an append only *extends* the dequantized views (see
    /// [`BatchKvCache::append_only_views`], which [`SingleSlot`] forwards
    /// this to): true for exact f32 storage and for streaming quantizers,
    /// false — the conservative default — for the recompute-on-read
    /// fallback.
    fn append_only_views(&self) -> bool {
        false
    }
}

/// One slot's K/V rows within a batched append
/// ([`BatchKvCache::append_batch`]).
#[derive(Debug, Clone, Copy)]
pub struct BatchAppend<'a> {
    /// Batch slot the rows belong to.
    pub slot: usize,
    /// The token's key vector.
    pub k: &'a [f32],
    /// The token's value vector.
    pub v: &'a [f32],
}

/// A KV cache serving *multiple concurrent sequences*, addressed by a
/// dense batch `slot` index. This is the storage interface the batched
/// forward pass ([`crate::Model::forward_batch`]) drives: slot `i` is the
/// `i`-th sequence of the current iteration's batch.
///
/// Every single-sequence [`KvCacheBackend`] is automatically a
/// `BatchKvCache` with exactly one slot (slot `0`), which is how the
/// legacy [`crate::Session`] runs on the shared forward pass — guaranteeing
/// the batched engine and the single-sequence path execute identical code.
pub trait BatchKvCache {
    /// Appends the current token's K/V vectors for `(slot, layer)`.
    fn append(&mut self, slot: usize, layer: usize, k: &[f32], v: &[f32]);

    /// Number of cached tokens for `(slot, layer)`.
    fn seq_len(&self, slot: usize, layer: usize) -> usize;

    /// What attention reads for `layer`, `[shard][run]`: per KV shard of
    /// this cache (one per tensor-parallel rank, rank order; a lone shard
    /// for an unsharded cache) and per `(slot, queries)` run in order, the
    /// encoded tensors of a slot on the fused read path, its dequantized
    /// views otherwise — all borrowed together, so one pass over the
    /// iteration's runs attends in place with no copy. `queries` is how
    /// many query tokens the caller serves from the borrow — the steps of
    /// the run that attend, whose rows are the newest `queries` the slot
    /// holds (a run's dead steps are appended but not counted; a run with
    /// none attending is not listed); backends use it for read accounting
    /// only.
    fn read_runs(&mut self, layer: usize, runs: &[(usize, usize)]) -> Vec<Vec<KvRead<'_>>>;

    /// Whether an append only *extends* the dequantized views — rows
    /// already materialized are never rewritten by later appends.
    ///
    /// This is the gate for the parallel forward pass: when it holds, the
    /// forward pass may append a whole iteration's rows first and attend
    /// afterwards with each step limited to its own causal length, with
    /// bit-identical
    /// results to the serial append-then-attend interleaving. It holds
    /// for exact f32 storage and for every streaming quantizer (the
    /// [`KvRowStream`] contract); it does **not** hold for the
    /// recompute-on-read fallback (KIVI/KVQuant re-derive scales over the
    /// whole prefix), so the conservative default is `false` and the
    /// forward pass falls back to the serial interleaving.
    fn append_only_views(&self) -> bool {
        false
    }

    /// Whether this cache's shards must agree on quantization scales per
    /// appended row — a rank-sharded quantized pool, whose whole-row
    /// min/max the forward pass accounts as one scale sync per K and V
    /// row.
    fn syncs_row_scales(&self) -> bool {
        false
    }

    /// Appends one iteration's rows for `layer` — semantically identical
    /// to calling [`BatchKvCache::append`] for each item in order. Backends
    /// with independent per-slot storage may shard the quantization work
    /// across `rt`; the default is the serial loop.
    fn append_batch(
        &mut self,
        rt: &oaken_runtime::Runtime,
        layer: usize,
        items: &[BatchAppend<'_>],
    ) {
        let _ = rt;
        for it in items {
            self.append(it.slot, layer, it.k, it.v);
        }
    }
}

/// Adapter exposing one single-sequence [`KvCacheBackend`] as a one-slot
/// [`BatchKvCache`] (slot `0`). [`crate::Session`] wraps its backend in
/// this to run on the shared batched forward pass.
pub struct SingleSlot<'a>(pub &'a mut dyn KvCacheBackend);

impl BatchKvCache for SingleSlot<'_> {
    fn append(&mut self, slot: usize, layer: usize, k: &[f32], v: &[f32]) {
        assert_eq!(slot, 0, "single-sequence cache has one slot");
        self.0.append(layer, k, v);
    }

    fn seq_len(&self, slot: usize, layer: usize) -> usize {
        assert_eq!(slot, 0, "single-sequence cache has one slot");
        self.0.seq_len(layer)
    }

    fn read_runs(&mut self, layer: usize, runs: &[(usize, usize)]) -> Vec<Vec<KvRead<'_>>> {
        assert!(
            runs.len() <= 1 && runs.iter().all(|&(slot, _)| slot == 0),
            "single-sequence cache has one slot"
        );
        if runs.is_empty() {
            return vec![Vec::new()];
        }
        // Probe-then-reborrow: the scrutinee of a single
        // `match self.0.encoded_kv(..)` would hold its borrow across the
        // arm that needs the backend mutably.
        if self.0.has_encoded_kv(layer) {
            let (keys, values) = self.0.encoded_kv(layer).expect("probed fused above");
            vec![vec![KvRead::Fused { keys, values }]]
        } else {
            let (keys, values) = self.0.kv_views(layer);
            vec![vec![KvRead::Exact { keys, values }]]
        }
    }

    fn append_only_views(&self) -> bool {
        self.0.append_only_views()
    }
}

#[derive(Debug, Default, Clone)]
struct LayerStore {
    k: Vec<f32>,
    v: Vec<f32>,
}

/// Lossless f32 cache: the "Original" reference configuration.
#[derive(Debug, Default)]
pub struct ExactCache {
    kv_dim: usize,
    layers: Vec<LayerStore>,
}

impl ExactCache {
    /// Creates an empty cache; call [`KvCacheBackend::reset`] before use
    /// (the model session does this automatically).
    pub fn new() -> Self {
        Self::default()
    }
}

impl KvCacheBackend for ExactCache {
    fn reset(&mut self, num_layers: usize, kv_dim: usize) {
        self.kv_dim = kv_dim;
        self.layers = vec![LayerStore::default(); num_layers];
    }

    fn append(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), self.kv_dim, "key width mismatch");
        assert_eq!(v.len(), self.kv_dim, "value width mismatch");
        let store = &mut self.layers[layer];
        store.k.extend_from_slice(k);
        store.v.extend_from_slice(v);
    }

    fn seq_len(&self, layer: usize) -> usize {
        if self.kv_dim == 0 {
            return 0;
        }
        self.layers[layer].k.len() / self.kv_dim
    }

    fn keys(&mut self, layer: usize) -> &[f32] {
        &self.layers[layer].k
    }

    fn values(&mut self, layer: usize) -> &[f32] {
        &self.layers[layer].v
    }

    fn kv_views(&mut self, layer: usize) -> (&[f32], &[f32]) {
        let store = &self.layers[layer];
        (&store.k, &store.v)
    }

    fn stored_bits_per_elem(&self) -> f64 {
        32.0
    }

    fn append_only_views(&self) -> bool {
        true
    }
}

/// How a [`QuantizedCache`] materializes its dequantized views.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Use each method's [`KvRowStream`] when available: O(d) appends,
    /// zero-cost reads. Methods without a stream use the recompute
    /// fallback automatically.
    Incremental,
    /// Force the legacy batch path for every method: retain exact rows and
    /// re-quantize the whole prefix on each read after an append. Kept as
    /// the reference semantics streams must match (the streaming
    /// proptests compare against it).
    Recompute,
}

/// Per-(layer, kind) storage: either a live row stream or the fallback's
/// exact copy, plus the materialized dequantized view attention reads.
///
/// Shared between the single-sequence [`QuantizedCache`] and the
/// multi-sequence [`crate::pool::PagedKvPool`], which hold one slot per
/// `(sequence, layer, kind)`.
pub(crate) struct KindSlot {
    pub(crate) stream: Option<Box<dyn KvRowStream>>,
    /// Exact rows (fallback path only).
    pub(crate) exact: Vec<f32>,
    /// Dequantized `[rows × d]` view. In fused mode this stays empty (or
    /// short) — rows live only in the stream's encoded state and the view
    /// is rebuilt lazily by [`KindSlot::sync`] if an exact reader
    /// asks for it.
    pub(crate) view: Vec<f32>,
    /// Fallback only: view is stale relative to `exact`.
    pub(crate) dirty: bool,
    pub(crate) rows: usize,
    /// Appends go through the stream's encoded path, skipping the view.
    /// Only ever true for streams whose quantizer supports the encoded
    /// read path (checked when the mode is installed).
    pub(crate) fused: bool,
}

impl KindSlot {
    /// An empty slot over `stream`, on the fused read path when `kernel`
    /// asks for it and the stream supports it.
    pub(crate) fn new(stream: Option<Box<dyn KvRowStream>>, kernel: KernelMode) -> Self {
        let mut slot = Self {
            stream,
            exact: Vec::new(),
            view: Vec::new(),
            dirty: false,
            rows: 0,
            fused: false,
        };
        slot.set_kernel(kernel);
        slot
    }

    /// Puts an empty slot on the read path `kernel` asks for:
    /// [`KernelMode::Fused`] engages only over a stream with the encoded
    /// read path.
    pub(crate) fn set_kernel(&mut self, kernel: KernelMode) {
        assert_eq!(self.rows, 0, "kernel mode must be set before appends");
        let fusable = (self.stream.as_deref()).is_some_and(|s| s.fused_read_params().is_some());
        self.fused = kernel == KernelMode::Fused && fusable;
    }

    pub(crate) fn append(&mut self, row: &[f32]) {
        self.rows += 1;
        match &mut self.stream {
            Some(stream) => {
                if !(self.fused && stream.append_row_encoded(row)) {
                    stream.append_row(row, &mut self.view);
                }
            }
            None => {
                self.exact.extend_from_slice(row);
                self.dirty = true;
            }
        }
    }

    /// Brings `view` up to date with every appended row — the one sync
    /// behind every dequantized read. The recompute fallback
    /// re-materializes a stale view from `exact` (through `quantizer`, or
    /// verbatim for exact-f32 storage); a fused slot decodes the rows its
    /// view is missing (the exact-path escape hatch: swap, logit
    /// recording, tests that compare views); a streaming exact-kernel
    /// slot is already current, its appends maintain the view.
    ///
    /// # Panics
    ///
    /// Panics if the slot is fused but its stream cannot decode (ruled out
    /// by the capability check when the mode is installed).
    pub(crate) fn sync(
        &mut self,
        quantizer: Option<&dyn KvQuantizer>,
        d: usize,
        layer: usize,
        kind: KvKind,
    ) {
        let Some(stream) = &self.stream else {
            if self.dirty {
                let rows = self.exact.len() / d.max(1);
                self.view = match quantizer {
                    Some(q) => q.roundtrip_matrix(&self.exact, rows, d, layer, kind),
                    None => self.exact.clone(),
                };
                self.dirty = false;
            }
            return;
        };
        let have = self.view.len() / d.max(1);
        if have < self.rows {
            let ok = stream.decode_rows_into(have, self.rows, &mut self.view);
            assert!(ok, "fused slot's stream lost its decode capability");
        }
    }

    /// Clears the slot's row history (keeping buffers and any frozen
    /// stream calibration) so a retired sequence's storage can be reused
    /// by a new one without reallocating.
    pub(crate) fn reset_for_reuse(&mut self) {
        if let Some(stream) = &mut self.stream {
            stream.reset();
        }
        self.exact.clear();
        self.view.clear();
        self.dirty = false;
        self.rows = 0;
    }

    /// The slot's encoded tensor, when it runs the fused read path and
    /// the stream's read plan covers every appended row.
    pub(crate) fn encoded(&self) -> Option<EncodedKv<'_>> {
        if !self.fused {
            return None;
        }
        let plan = self.stream.as_ref()?.read_plan()?;
        (plan.rows() == self.rows).then_some(EncodedKv { plan })
    }
}

/// A cache that stores all KV data through a [`KvQuantizer`].
///
/// See the module docs for the incremental design and the per-channel
/// fallback semantics.
pub struct QuantizedCache {
    quantizer: Arc<dyn KvQuantizer>,
    mode: CacheMode,
    kernel: KernelMode,
    kv_dim: usize,
    layers: Vec<[KindSlot; 2]>,
}

impl QuantizedCache {
    /// Creates an incremental cache backed by `quantizer` (streaming for
    /// token-granular methods, recompute fallback otherwise).
    pub fn new(quantizer: Arc<dyn KvQuantizer>) -> Self {
        Self::with_mode(quantizer, CacheMode::Incremental)
    }

    /// Creates a cache that always re-quantizes the full prefix on read —
    /// the quadratic legacy path, kept for benchmarking and reference.
    pub fn new_recompute(quantizer: Arc<dyn KvQuantizer>) -> Self {
        Self::with_mode(quantizer, CacheMode::Recompute)
    }

    /// Creates a cache with an explicit materialization mode.
    pub fn with_mode(quantizer: Arc<dyn KvQuantizer>, mode: CacheMode) -> Self {
        Self {
            quantizer,
            mode,
            kernel: KernelMode::Exact,
            kv_dim: 0,
            layers: Vec::new(),
        }
    }

    /// The backing quantizer's name.
    pub fn quantizer_name(&self) -> &'static str {
        self.quantizer.name()
    }

    /// The active materialization mode.
    pub fn mode(&self) -> CacheMode {
        self.mode
    }

    /// Selects the attention read path. Takes effect at the next
    /// [`KvCacheBackend::reset`] (the session resets its cache before any
    /// row is appended). [`KernelMode::Fused`] engages per slot only when
    /// the quantizer's streams support the encoded read path; other slots
    /// (and the whole cache in [`CacheMode::Recompute`]) keep the exact
    /// behaviour.
    pub fn set_kernel_mode(&mut self, kernel: KernelMode) {
        self.kernel = kernel;
        for slot in self.layers.iter_mut().flatten() {
            slot.set_kernel(kernel);
        }
    }

    /// The requested kernel mode.
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Whether the `(layer, kind)` slot runs on the streaming path.
    pub fn is_streaming(&self, layer: usize, kind: KvKind) -> bool {
        self.layers[layer][slot_index(kind)].stream.is_some()
    }

    /// Whether the `(layer, kind)` slot actually runs the fused read path.
    pub fn is_fused(&self, layer: usize, kind: KvKind) -> bool {
        self.layers[layer][slot_index(kind)].fused
    }

    /// One tensor's dequantized view, brought up to date.
    fn synced(&mut self, layer: usize, kind: KvKind) -> &[f32] {
        let slot = &mut self.layers[layer][slot_index(kind)];
        slot.sync(Some(&*self.quantizer), self.kv_dim, layer, kind);
        &slot.view
    }
}

/// Index of `kind` within a `[KindSlot; 2]` pair: keys first.
pub(crate) fn slot_index(kind: KvKind) -> usize {
    match kind {
        KvKind::Key => 0,
        KvKind::Value => 1,
    }
}

impl std::fmt::Debug for QuantizedCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedCache")
            .field("quantizer", &self.quantizer.name())
            .field("mode", &self.mode)
            .field("kv_dim", &self.kv_dim)
            .field("layers", &self.layers.len())
            .finish()
    }
}

impl KvCacheBackend for QuantizedCache {
    fn reset(&mut self, num_layers: usize, kv_dim: usize) {
        self.kv_dim = kv_dim;
        let kernel = self.kernel;
        self.layers = (0..num_layers)
            .map(|layer| {
                let mk = |kind: KvKind| {
                    let stream = match self.mode {
                        CacheMode::Incremental => self.quantizer.row_stream(kv_dim, layer, kind),
                        CacheMode::Recompute => None,
                    };
                    KindSlot::new(stream, kernel)
                };
                [mk(KvKind::Key), mk(KvKind::Value)]
            })
            .collect();
    }

    fn append(&mut self, layer: usize, k: &[f32], v: &[f32]) {
        assert_eq!(k.len(), self.kv_dim, "key width mismatch");
        assert_eq!(v.len(), self.kv_dim, "value width mismatch");
        let [key_slot, value_slot] = &mut self.layers[layer];
        key_slot.append(k);
        value_slot.append(v);
    }

    fn seq_len(&self, layer: usize) -> usize {
        self.layers[layer][0].rows
    }

    fn keys(&mut self, layer: usize) -> &[f32] {
        self.synced(layer, KvKind::Key)
    }

    fn values(&mut self, layer: usize) -> &[f32] {
        self.synced(layer, KvKind::Value)
    }

    fn kv_views(&mut self, layer: usize) -> (&[f32], &[f32]) {
        let [key_slot, value_slot] = &mut self.layers[layer];
        key_slot.sync(Some(&*self.quantizer), self.kv_dim, layer, KvKind::Key);
        value_slot.sync(Some(&*self.quantizer), self.kv_dim, layer, KvKind::Value);
        (&key_slot.view, &value_slot.view)
    }

    /// Mean stored bits per element across **all layers and both tensor
    /// kinds, weighted by each slot's actual row count**. Streaming slots
    /// that track their encoded payload report exact stored bytes; other
    /// slots use the quantizer's nominal estimate at their true
    /// `(rows, d)`. An empty cache reports the nominal single-row
    /// estimate.
    fn stored_bits_per_elem(&self) -> f64 {
        let d = self.kv_dim.max(1);
        let mut bits = 0.0f64;
        let mut elems = 0usize;
        for layer in &self.layers {
            for slot in layer {
                if slot.rows == 0 {
                    continue;
                }
                let n = slot.rows * d;
                bits += match slot.stream.as_ref().and_then(|s| s.payload_bytes()) {
                    Some(bytes) => bytes as f64 * 8.0,
                    None => self.quantizer.effective_bits(slot.rows, d) * n as f64,
                };
                elems += n;
            }
        }
        if elems == 0 {
            return self.quantizer.effective_bits(1, d);
        }
        bits / elems as f64
    }

    fn encoded_kv(&self, layer: usize) -> Option<(EncodedKv<'_>, EncodedKv<'_>)> {
        let [key_slot, value_slot] = &self.layers[layer];
        Some((key_slot.encoded()?, value_slot.encoded()?))
    }

    fn set_kernel_mode(&mut self, kernel: KernelMode) -> KernelMode {
        QuantizedCache::set_kernel_mode(self, kernel);
        self.kernel
    }

    fn kernel_mode(&self) -> KernelMode {
        self.kernel
    }

    /// Append-only exactly when every `(layer, kind)` slot streams
    /// (`row_stream` is a per-tensor decision); a recompute slot
    /// re-derives its view over the whole prefix on read.
    fn append_only_views(&self) -> bool {
        self.layers.iter().flatten().all(|s| s.stream.is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    /// Row-bit accounting depends on rows: 16 bits for short prefixes,
    /// 4 for long ones (like KIVI's residual window amortization).
    struct RowDependentBits;

    impl KvQuantizer for RowDependentBits {
        fn name(&self) -> &'static str {
            "rowdep"
        }
        fn roundtrip_matrix(
            &self,
            data: &[f32],
            _rows: usize,
            _d: usize,
            _layer: usize,
            _kind: KvKind,
        ) -> Vec<f32> {
            data.to_vec()
        }
        fn effective_bits(&self, rows: usize, _d: usize) -> f64 {
            if rows >= 4 {
                4.0
            } else {
                16.0
            }
        }
        fn online_cost(&self) -> OnlineCost {
            OnlineCost::free()
        }
    }

    #[test]
    fn exact_cache_roundtrips() {
        let mut c = ExactCache::new();
        c.reset(2, 4);
        c.append(0, &[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0, 7.0, 8.0]);
        c.append(0, &[9.0; 4], &[10.0; 4]);
        assert_eq!(c.seq_len(0), 2);
        assert_eq!(c.seq_len(1), 0);
        assert_eq!(&c.keys(0)[..4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(&c.values(0)[4..], &[10.0; 4]);
        assert_eq!(c.stored_bits_per_elem(), 32.0);
    }

    #[test]
    fn quantized_cache_applies_quantizer() {
        let mut c = QuantizedCache::new(Arc::new(RoundingQuantizer));
        c.reset(1, 2);
        c.append(0, &[1.4, 2.6], &[0.2, -0.7]);
        assert_eq!(c.keys(0), &[1.0, 3.0]);
        assert_eq!(c.values(0), &[0.0, -1.0]);
        assert_eq!(c.quantizer_name(), "round");
        assert_eq!(c.stored_bits_per_elem(), 8.0);
        // No row_stream -> fallback path.
        assert!(!c.is_streaming(0, KvKind::Key));
    }

    #[test]
    fn quantized_cache_refreshes_after_append() {
        let mut c = QuantizedCache::new(Arc::new(RoundingQuantizer));
        c.reset(1, 1);
        c.append(0, &[1.4], &[1.4]);
        assert_eq!(c.keys(0), &[1.0]);
        c.append(0, &[2.6], &[2.6]);
        assert_eq!(c.keys(0), &[1.0, 3.0]);
        assert_eq!(c.seq_len(0), 2);
    }

    #[test]
    fn stored_bits_weight_layers_by_actual_rows() {
        let mut c = QuantizedCache::new(Arc::new(RowDependentBits));
        c.reset(2, 2);
        // Layer 0: 4 rows (4.0 bits); layer 1: 1 row (16.0 bits).
        for i in 0..4 {
            c.append(0, &[i as f32, 0.0], &[0.0, 0.0]);
        }
        c.append(1, &[1.0, 1.0], &[2.0, 2.0]);
        // Elements: layer0 = 4*2*2 = 16 at 4 bits, layer1 = 1*2*2 = 4 at
        // 16 bits -> (16*4 + 4*16) / 20 = 6.4. The old layer-0-only
        // extrapolation would have claimed 4.0.
        let bits = c.stored_bits_per_elem();
        assert!((bits - 6.4).abs() < 1e-9, "{bits}");
    }

    #[test]
    fn empty_quantized_cache_reports_nominal_bits() {
        let mut c = QuantizedCache::new(Arc::new(RoundingQuantizer));
        c.reset(1, 8);
        assert_eq!(c.stored_bits_per_elem(), 8.0);
    }

    #[test]
    fn recompute_mode_disables_streams() {
        use oaken_baselines_test_helpers::oaken_quantizer;
        let q = Arc::new(oaken_quantizer(16, 1));
        let mut inc = QuantizedCache::new(q.clone());
        inc.reset(1, 16);
        assert!(inc.is_streaming(0, KvKind::Key));
        let mut rec = QuantizedCache::new_recompute(q);
        rec.reset(1, 16);
        assert!(!rec.is_streaming(0, KvKind::Key));
        assert_eq!(rec.mode(), CacheMode::Recompute);
    }

    #[test]
    fn incremental_and_recompute_views_are_bit_identical_for_oaken() {
        use oaken_baselines_test_helpers::{oaken_quantizer, test_row};
        let d = 32;
        let q = Arc::new(oaken_quantizer(d, 2));
        let mut inc = QuantizedCache::new(q.clone());
        let mut rec = QuantizedCache::new_recompute(q);
        inc.reset(2, d);
        rec.reset(2, d);
        for t in 0..20 {
            for layer in 0..2 {
                let k = test_row(d, t * 7 + layer as u64);
                let v = test_row(d, t * 13 + layer as u64 + 99);
                inc.append(layer, &k, &v);
                rec.append(layer, &k, &v);
            }
            for layer in 0..2 {
                let a: Vec<u32> = inc.keys(layer).iter().map(|x| x.to_bits()).collect();
                let b: Vec<u32> = rec.keys(layer).iter().map(|x| x.to_bits()).collect();
                assert_eq!(a, b, "keys diverged at token {t} layer {layer}");
                let a: Vec<u32> = inc.values(layer).iter().map(|x| x.to_bits()).collect();
                let b: Vec<u32> = rec.values(layer).iter().map(|x| x.to_bits()).collect();
                assert_eq!(a, b, "values diverged at token {t} layer {layer}");
            }
        }
        // The streaming slots track exact payload bytes.
        let bits = inc.stored_bits_per_elem();
        assert!(bits > 3.0 && bits < 8.0, "{bits}");
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

    /// `SingleSlot` forwards the backend's answer, so Sessions over exact
    /// and streaming caches take the append-then-attend batch path and only
    /// the recompute fallback interleaves.
    #[test]
    fn append_only_views_follow_the_backend() {
        use oaken_baselines_test_helpers::oaken_quantizer;
        let q = Arc::new(oaken_quantizer(16, 1));
        let mut exact = ExactCache::new();
        exact.reset(1, 16);
        assert!(SingleSlot(&mut exact).append_only_views());
        let mut streaming = QuantizedCache::new(q.clone());
        streaming.reset(1, 16);
        assert!(SingleSlot(&mut streaming).append_only_views());
        let mut recompute = QuantizedCache::new_recompute(q);
        recompute.reset(1, 16);
        assert!(!SingleSlot(&mut recompute).append_only_views());
        let mut per_channel = QuantizedCache::new(Arc::new(RoundingQuantizer));
        per_channel.reset(1, 16);
        assert!(!SingleSlot(&mut per_channel).append_only_views());
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn append_checks_width() {
        let mut c = ExactCache::new();
        c.reset(1, 4);
        c.append(0, &[1.0], &[1.0]);
    }

    #[test]
    fn kernel_mode_parses_and_labels() {
        assert_eq!(KernelMode::parse("exact"), Some(KernelMode::Exact));
        assert_eq!(KernelMode::parse("FUSED"), Some(KernelMode::Fused));
        assert_eq!(KernelMode::parse("turbo"), None);
        assert_eq!(KernelMode::Fused.label(), "fused");
        assert_eq!(KernelMode::default(), KernelMode::Exact);
    }

    /// Fused mode must keep rows encoded-only (no f32 view resident),
    /// expose them through `encoded_kv`, and still produce the exact
    /// view bit-identically when an exact reader asks.
    #[test]
    fn fused_mode_skips_views_and_decodes_lazily() {
        use oaken_baselines_test_helpers::{oaken_quantizer, test_row};
        let d = 32;
        let q = Arc::new(oaken_quantizer(d, 1));
        let mut exact = QuantizedCache::new(q.clone());
        exact.reset(1, d);
        let mut fused = QuantizedCache::new(q);
        fused.set_kernel_mode(KernelMode::Fused);
        fused.reset(1, d);
        assert!(fused.is_fused(0, KvKind::Key));
        for t in 0..12u64 {
            let k = test_row(d, t * 3 + 1);
            let v = test_row(d, t * 5 + 2);
            exact.append(0, &k, &v);
            fused.append(0, &k, &v);
        }
        // No dequantized image resident; encoded rows fully exposed.
        assert!(fused.layers[0][0].view.is_empty());
        assert!(fused.layers[0][1].view.is_empty());
        let (ek, ev) = fused.encoded_kv(0).expect("fused cache exposes encoding");
        assert_eq!(ek.plan.rows(), 12);
        assert_eq!(ev.plan.rows(), 12);
        assert!(KvCacheBackend::encoded_kv(&exact, 0).is_none());
        // Lazy decode reproduces the exact views bit-for-bit.
        let a: Vec<u32> = exact.keys(0).iter().map(|x| x.to_bits()).collect();
        let b: Vec<u32> = fused.keys(0).iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
        let a: Vec<u32> = exact.values(0).iter().map(|x| x.to_bits()).collect();
        let b: Vec<u32> = fused.values(0).iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
        // And appends after a lazy decode keep both halves consistent.
        let k = test_row(d, 777);
        let v = test_row(d, 778);
        exact.append(0, &k, &v);
        fused.append(0, &k, &v);
        let a: Vec<u32> = exact.keys(0).iter().map(|x| x.to_bits()).collect();
        let b: Vec<u32> = fused.keys(0).iter().map(|x| x.to_bits()).collect();
        assert_eq!(a, b);
    }
}
