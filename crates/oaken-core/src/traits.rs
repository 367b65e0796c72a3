//! The [`KvQuantizer`] abstraction shared by Oaken and all baseline
//! reimplementations, the [`KvRowStream`] incremental append interface that
//! the serving-path KV cache drives, plus the [`OnlineCost`] descriptor that
//! the performance simulator uses to charge each method's runtime overhead.

use crate::kernel::EncodedStore;
use crate::thresholds::KvKind;

/// Runtime-cost descriptor of a KV quantization method, consumed by the
/// `oaken-accel` performance simulator.
///
/// The paper's central performance argument (§3.3, §6.2) is that methods
/// with low *effective bitwidth* can still lose end-to-end because their
/// online machinery — topK sorting, channel reordering, mixed-precision
/// scatter/gather — costs more than the bandwidth it saves. This struct
/// captures exactly those axes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineCost {
    /// Arithmetic operations per element on the quantization (write) path,
    /// excluding any sorting term.
    pub quant_flops_per_elem: f64,
    /// Arithmetic operations per element on the dequantization (read) path.
    pub dequant_flops_per_elem: f64,
    /// Whether the method requires an online `O(n log n)` sort/topK per
    /// quantized vector (KVQuant-style outlier detection).
    pub sort_nlogn: bool,
    /// Whether the method performs online channel reordering (QServe, Atom,
    /// Tender), charged as one gather per element.
    pub channel_reorder: bool,
    /// Whether mixed-precision (FP16 sparse + INT4 dense) compute paths are
    /// required, which serializes GPU warps; ≥ 1.0 multiplier applied to
    /// quant/dequant time when executed on a GPU.
    pub gpu_divergence_penalty: f64,
}

impl OnlineCost {
    /// A zero-overhead placeholder (used by the FP16 no-quantization
    /// reference).
    pub fn free() -> Self {
        Self {
            quant_flops_per_elem: 0.0,
            dequant_flops_per_elem: 0.0,
            sort_nlogn: false,
            channel_reorder: false,
            gpu_divergence_penalty: 1.0,
        }
    }

    /// Total quantization-side operations for an `n`-element vector,
    /// including the sorting and reordering terms.
    pub fn quant_ops(&self, n: usize) -> f64 {
        let n_f = n as f64;
        let mut ops = self.quant_flops_per_elem * n_f;
        if self.sort_nlogn {
            ops += n_f * n_f.max(2.0).log2();
        }
        if self.channel_reorder {
            ops += n_f;
        }
        ops
    }

    /// Total dequantization-side operations for an `n`-element vector.
    pub fn dequant_ops(&self, n: usize) -> f64 {
        self.dequant_flops_per_elem * n as f64
    }
}

impl Default for OnlineCost {
    fn default() -> Self {
        Self::free()
    }
}

/// An incremental, append-only stream of quantized KV rows for one
/// `(layer, kind)` tensor — the abstraction the serving-path cache drives
/// once per generated token.
///
/// Contract:
///
/// * [`append_row`](KvRowStream::append_row) consumes one `d`-wide token
///   vector and leaves `view` holding exactly one `d`-wide row per row
///   appended. The same `view` buffer must be passed on every call; the
///   stream owns its contents between appends.
/// * After the stream's **calibration warm-up** (if the method has one —
///   e.g. reorder-based baselines freeze their channel permutation after
///   `calib_rows` tokens), an append only *extends* `view`: rows already
///   materialized are never rewritten, so appends are O(d) and the
///   attention read path is allocation- and recompute-free.
/// * During warm-up an append may rewrite the whole view (the prefix is at
///   most a few calibration rows, so the total extra work is O(1) rows).
///
/// Streams must replicate the batch [`KvQuantizer::roundtrip_matrix`]
/// semantics bit-exactly for any prefix at least as long as the warm-up;
/// the property tests in `oaken-model` enforce this across random append
/// schedules.
///
/// Three methods are required ([`append_row`](KvRowStream::append_row),
/// [`held_bytes`](KvRowStream::held_bytes), [`reset`](KvRowStream::reset)).
/// A method that keeps its rows encoded also lends out its one
/// [`EncodedStore`] ([`encoded_rows`](KvRowStream::encoded_rows) and
/// [`encoded_rows_mut`](KvRowStream::encoded_rows_mut)) and appends
/// without a view ([`append_row_encoded`](KvRowStream::append_row_encoded));
/// [`payload_bytes`](KvRowStream::payload_bytes) is derived from the
/// store.
pub trait KvRowStream: Send {
    /// Quantizes and immediately dequantizes the next token row, appending
    /// the `d` reconstructed values to `view` (rewriting earlier rows only
    /// during calibration warm-up).
    fn append_row(&mut self, row: &[f32], view: &mut Vec<f32>);

    /// Heap bytes the stream holds: the capacities of every buffer it
    /// owns (rows, read-side caches, scratch), not counting the view the
    /// caller passes to [`append_row`](KvRowStream::append_row). Set
    /// against [`payload_bytes`](KvRowStream::payload_bytes), the charged
    /// bytes, it says how much more memory a cached row really takes.
    fn held_bytes(&self) -> usize;

    /// Clears all appended rows so the stream slot can be handed to a new
    /// sequence, **retaining any frozen calibration state** (channel
    /// orders, smoothing scales, group quantizers). This is the
    /// multi-sequence serving contract: calibration is per-model (offline
    /// or frozen after warm-up) and shared across requests, while row
    /// history is per-sequence. Methods without calibration state become
    /// indistinguishable from a fresh stream after `reset`.
    fn reset(&mut self);

    /// Encoded payload bytes of every row held, off
    /// [`encoded_rows`](KvRowStream::encoded_rows); `None` for a stream
    /// without an encoded form, which the cache charges at the nominal
    /// [`KvQuantizer::effective_bits`] instead.
    fn payload_bytes(&self) -> Option<usize> {
        let store = self.encoded_rows()?;
        Some(store.payload_bytes(store.len()))
    }

    // ------------------------------------------------------------------
    // Encoded (quantized-domain) form — for a method that keeps one.
    //
    // A stream whose canonical state is the fused encoding keeps each row
    // once, in its `EncodedStore`, and lends the store out: readers take
    // everything from it — the fused kernel's key groups and value rows,
    // each row's charged bytes, dequantized rows, page-form copies, the
    // sealed segments a prefix block shares — and writers adopt page-form
    // rows and shared segments into it. A stream without an encoded form
    // answers `None` / `false`, so every baseline keeps working
    // unchanged; a caller must check `append_row_encoded`'s return and
    // fall back to `append_row`.
    // ------------------------------------------------------------------

    /// The stream's one store of its encoded rows, when the method keeps
    /// them encoded. `None` means the method has no encoded form and
    /// readers must use the dequantized view.
    fn encoded_rows(&self) -> Option<&EncodedStore> {
        None
    }

    /// [`encoded_rows`](KvRowStream::encoded_rows), to write: a sealed
    /// prefix block's page-form rows or a rank's slice of a row are
    /// pushed into it ([`EncodedStore::push_rows`]), another stream's
    /// sealed segments shared into it
    /// ([`EncodedStore::share_segments`]).
    fn encoded_rows_mut(&mut self) -> Option<&mut EncodedStore> {
        None
    }

    /// Quantizes and appends the next token row **without materializing
    /// its dequantized image** — the memory half of the fused-kernel win.
    /// Returns `false` (and appends nothing) when the method cannot skip
    /// the view; the caller must then use
    /// [`append_row`](KvRowStream::append_row) instead.
    fn append_row_encoded(&mut self, row: &[f32]) -> bool {
        let _ = row;
        false
    }
}

/// A KV-cache quantization method operating on `[rows × d]` row-major
/// matrices (rows = tokens, columns = channels).
///
/// The matrix-level API accommodates both per-token methods (Oaken, which
/// processes each row independently and streams) and per-channel methods
/// (KIVI/KVQuant keys, which need column statistics). Token-granular
/// methods additionally expose a [`KvRowStream`] through
/// [`row_stream`](KvQuantizer::row_stream) so the serving cache can append
/// in O(d) instead of re-quantizing the whole prefix per token.
///
/// Implementors must be `Send + Sync` so evaluation sweeps can fan out
/// across threads.
pub trait KvQuantizer: Send + Sync {
    /// Short stable identifier used in reports ("oaken", "kivi", ...).
    fn name(&self) -> &'static str;

    /// Quantizes and immediately dequantizes a `[rows × d]` matrix,
    /// returning the lossy reconstruction. `layer` and `kind` give
    /// profile-aware methods (Oaken, KVQuant) their context; data-free
    /// methods ignore them.
    fn roundtrip_matrix(
        &self,
        data: &[f32],
        rows: usize,
        d: usize,
        layer: usize,
        kind: KvKind,
    ) -> Vec<f32>;

    /// Nominal stored bits per element for a `[rows × d]` matrix (scale and
    /// index overheads amortized in).
    fn effective_bits(&self, rows: usize, d: usize) -> f64;

    /// Runtime-cost descriptor for the performance simulator.
    fn online_cost(&self) -> OnlineCost;

    /// Opens an incremental row stream for one `(layer, kind)` tensor of
    /// width `d`, or `None` when the method needs tensor-level statistics
    /// (per-channel scales, whole-tensor topK) and the cache must fall back
    /// to full re-quantization on read.
    ///
    /// The default is `None`: correctness first, with the streaming fast
    /// path as an opt-in per method.
    fn row_stream(&self, d: usize, layer: usize, kind: KvKind) -> Option<Box<dyn KvRowStream>> {
        let _ = (d, layer, kind);
        None
    }

    /// Whether a token row's encoded payload (and its dequantized image)
    /// depends **only on the row itself** — never on which rows preceded
    /// it, which sequence produced it, or what a stream saw before.
    ///
    /// This is the soundness gate for cross-sequence prefix sharing:
    /// identical prompt prefixes produce bit-identical quantized pages
    /// exactly when this holds, so a paged pool may deduplicate them.
    /// True for Oaken (all state is offline-profiled thresholds) and
    /// plain FP16/exact storage; **false** for calibrate-then-freeze
    /// baselines (Atom, QServe, Tender — encoding depends on whichever
    /// rows warmed the stream up) and for per-channel/whole-tensor
    /// methods (KIVI, KVQuant — scales span the prefix).
    ///
    /// The default is `false`: sharing is an opt-in guarantee, never an
    /// assumption.
    fn prefix_deterministic(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_cost_is_zero() {
        let c = OnlineCost::free();
        assert_eq!(c.quant_ops(1024), 0.0);
        assert_eq!(c.dequant_ops(1024), 0.0);
        assert_eq!(c.gpu_divergence_penalty, 1.0);
    }

    #[test]
    fn sort_term_is_nlogn() {
        let c = OnlineCost {
            sort_nlogn: true,
            ..OnlineCost::free()
        };
        let n = 4096usize;
        let expected = n as f64 * (n as f64).log2();
        assert!((c.quant_ops(n) - expected).abs() < 1.0);
    }

    #[test]
    fn reorder_term_is_linear() {
        let c = OnlineCost {
            channel_reorder: true,
            ..OnlineCost::free()
        };
        assert_eq!(c.quant_ops(100), 100.0);
    }

    #[test]
    fn flop_terms_accumulate() {
        let c = OnlineCost {
            quant_flops_per_elem: 3.0,
            dequant_flops_per_elem: 2.0,
            ..OnlineCost::free()
        };
        assert_eq!(c.quant_ops(10), 30.0);
        assert_eq!(c.dequant_ops(10), 20.0);
    }
}
