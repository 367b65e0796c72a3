//! Read views: what attention reads of a sequence — dequantized views or
//! encoded tensors — and the traffic counters over those reads.

use super::{PagedKvPool, SeqId};
use crate::attention::{EncodedKv, KvRead, QUERY_TILE};
use crate::cache::slot_index;
use oaken_core::KvKind;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative KV read-path traffic of a pool, split by kernel family —
/// the measurement behind the fused kernel's bandwidth claim: in fused
/// mode the bytes column counts **encoded payload bytes**, in exact mode
/// it counts the dequantized f32 view bytes the kernels actually stream.
///
/// Rows and bytes are *logical*: every query token that attends is
/// charged the K and V rows cached when it does (before any sliding
/// window), whether or not it shared a sweep with its neighbours — a step
/// the forward pass ends at its K/V append (a dead step's last layer)
/// reads nothing and is charged nothing. `fused_rows_swept` is the
/// physical side: rows the fused kernel actually walked and decoded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvReadStats {
    /// Encoded rows attended, summed over query tokens.
    pub fused_rows: u64,
    /// Encoded payload bytes those rows occupy.
    pub fused_bytes: u64,
    /// Encoded rows walked by sweeps of the fused kernel: one pass over a
    /// sequence's rows per tile of up to [`QUERY_TILE`] query tokens, so
    /// equal to `fused_rows` on pure decode and far below it on a chunked
    /// prefill.
    pub fused_rows_swept: u64,
    /// Dequantized f32 rows attended, summed over query tokens.
    pub exact_rows: u64,
    /// f32 bytes those rows occupy.
    pub exact_bytes: u64,
}

impl std::ops::AddAssign for KvReadStats {
    fn add_assign(&mut self, s: Self) {
        self.fused_rows += s.fused_rows;
        self.fused_bytes += s.fused_bytes;
        self.fused_rows_swept += s.fused_rows_swept;
        self.exact_rows += s.exact_rows;
        self.exact_bytes += s.exact_bytes;
    }
}

/// Interior-mutable [`KvReadStats`] accumulator: the fused read path
/// borrows the pool shared (`&self` — K and V must coexist), so the
/// counters are relaxed atomics rather than plain fields.
#[derive(Default)]
pub(super) struct ReadCounters {
    fused_rows: AtomicU64,
    fused_bytes: AtomicU64,
    fused_rows_swept: AtomicU64,
    exact_rows: AtomicU64,
    exact_bytes: AtomicU64,
}

impl ReadCounters {
    pub(super) fn snapshot(&self) -> KvReadStats {
        KvReadStats {
            fused_rows: self.fused_rows.load(Ordering::Relaxed),
            fused_bytes: self.fused_bytes.load(Ordering::Relaxed),
            fused_rows_swept: self.fused_rows_swept.load(Ordering::Relaxed),
            exact_rows: self.exact_rows.load(Ordering::Relaxed),
            exact_bytes: self.exact_bytes.load(Ordering::Relaxed),
        }
    }

    /// Charges `rows` dequantized rows of `kv_dim` f32 channels.
    fn charge_exact(&self, rows: u64, kv_dim: usize) {
        self.exact_rows.fetch_add(rows, Ordering::Relaxed);
        self.exact_bytes
            .fetch_add(rows * (kv_dim * 4) as u64, Ordering::Relaxed);
    }
}

impl PagedKvPool {
    /// Number of cached tokens for `(seq, layer)`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn seq_len(&self, seq: SeqId, layer: usize) -> usize {
        self.seqs.get(&seq.0).expect("unknown sequence").slots[layer][0].rows
    }

    /// Dequantized `[seq_len × kv_dim]` view of the cached keys. In fused
    /// mode this is the exact-path escape hatch: the view is rebuilt
    /// lazily from the encoded rows (attention itself goes through
    /// [`PagedKvPool::encoded_kv`] and never pays this).
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn keys(&mut self, seq: SeqId, layer: usize) -> &[f32] {
        self.synced_view(seq, layer, KvKind::Key)
    }

    /// Dequantized view of the cached values (see [`PagedKvPool::keys`]).
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn values(&mut self, seq: SeqId, layer: usize) -> &[f32] {
        self.synced_view(seq, layer, KvKind::Value)
    }

    /// The `(seq, layer)` K and V tensors in their encoded form — the
    /// fused kernel's read path — accounted as one query token's read.
    /// `None` unless the pool runs [`KernelMode::Fused`](crate::KernelMode::Fused)
    /// (or for an unknown sequence). Takes `&self` so the key and value
    /// tensors can be borrowed together; read accounting therefore goes
    /// through relaxed atomic counters.
    pub fn encoded_kv(&self, seq: SeqId, layer: usize) -> Option<(EncodedKv<'_>, EncodedKv<'_>)> {
        if !self.has_encoded_kv(seq, layer) {
            return None;
        }
        match self.read_kv(seq, layer, 1) {
            KvRead::Fused { keys, values } => Some((keys, values)),
            KvRead::Exact { .. } => unreachable!("probed fused above"),
        }
    }

    /// Brings the dequantized views of `(seq, layer)` up to date for
    /// [`read_kv`](PagedKvPool::read_kv) — a no-op for slots on the fused
    /// read path and for views that appends maintain; the recompute
    /// fallback re-materializes here.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence.
    pub fn sync_views(&mut self, seq: SeqId, layer: usize) {
        if self.has_encoded_kv(seq, layer) {
            return;
        }
        let state = self.seqs.get_mut(&seq.0).expect("unknown sequence");
        for kind in KvKind::ALL {
            let slot = &mut state.slots[layer][slot_index(kind)];
            slot.sync(self.quantizer.as_deref(), self.kv_dim, layer, kind);
        }
    }

    /// One tensor's view, synced and charged as one full read of its rows.
    fn synced_view(&mut self, seq: SeqId, layer: usize, kind: KvKind) -> &[f32] {
        let state = self.seqs.get_mut(&seq.0).expect("unknown sequence");
        let slot = &mut state.slots[layer][slot_index(kind)];
        slot.sync(self.quantizer.as_deref(), self.kv_dim, layer, kind);
        self.reads.charge_exact(slot.rows as u64, self.kv_dim);
        &slot.view
    }

    /// What attention reads for `(seq, layer)`: the encoded tensors in
    /// fused mode, else the dequantized views as of the last
    /// [`sync_views`](PagedKvPool::sync_views). `queries` is the run of
    /// consecutive query tokens that attend through this borrow — the
    /// tokens whose rows are the newest `queries` cached, i.e. the live
    /// suffix of the run just appended, not its appended length — and
    /// sizes the read accounting (see [`KvReadStats`]). Takes `&self` so
    /// any number of sequences can be read together.
    ///
    /// # Panics
    ///
    /// Panics on an unknown sequence, or if an exact slot's view is stale.
    pub fn read_kv(&self, seq: SeqId, layer: usize, queries: usize) -> KvRead<'_> {
        let [key_slot, value_slot] = &self.seqs.get(&seq.0).expect("unknown sequence").slots[layer];
        let rows = key_slot.rows;
        let n = queries.min(rows);
        // Query `i` of the run attends `rows - n + 1 + i` K/V row pairs.
        let attended = (n * (2 * rows + 1 - n)) as u64;
        let (Some(keys), Some(values)) = (key_slot.encoded(), value_slot.encoded()) else {
            for slot in [key_slot, value_slot] {
                assert!(
                    !slot.dirty && slot.view.len() == slot.rows * self.kv_dim,
                    "exact view read without sync_views"
                );
            }
            self.reads.charge_exact(attended, self.kv_dim);
            return KvRead::Exact {
                keys: &key_slot.view,
                values: &value_slot.view,
            };
        };
        // Payload of the first `m` rows of both streams, summed over the
        // run's `m`: walk back from the full payload one row at a time.
        let mut bytes = 0u64;
        for slot in [key_slot, value_slot] {
            let stream = slot.stream.as_ref().expect("encoded slots stream");
            let tail = stream.encoded_rows().expect("encoded slots keep rows");
            let mut prefix = stream.payload_bytes().unwrap_or(0);
            for fv in tail[rows - n..].iter().rev() {
                bytes += prefix as u64;
                prefix -= fv.payload_bytes();
            }
        }
        // One sweep per tile, up to the rows its last query sees.
        let swept: usize = (0..n)
            .step_by(QUERY_TILE)
            .map(|a| 2 * (rows - n + (a + QUERY_TILE).min(n)))
            .sum();
        let reads = &self.reads;
        reads.fused_rows.fetch_add(attended, Ordering::Relaxed);
        reads.fused_bytes.fetch_add(bytes, Ordering::Relaxed);
        reads
            .fused_rows_swept
            .fetch_add(swept as u64, Ordering::Relaxed);
        KvRead::Fused { keys, values }
    }

    /// Whether `(seq, layer)` is served in encoded form — the branch
    /// probe, free of read accounting.
    pub fn has_encoded_kv(&self, seq: SeqId, layer: usize) -> bool {
        let Some(state) = self.seqs.get(&seq.0) else {
            return false;
        };
        let [key_slot, value_slot] = &state.slots[layer];
        key_slot.encoded().is_some() && value_slot.encoded().is_some()
    }
}
