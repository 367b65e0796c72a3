//! Reimplementations of the KV-cache quantization baselines the Oaken paper
//! compares against (Table 2, Figure 11):
//!
//! | Type | Method axis | Effective bits (paper) |
//! |---|---|---|
//! | [`Fp16Reference`] | no quantization | 16.00 |
//! | [`KvQuantStyle`] | per-vector quant + online topK outliers kept FP16 | 4.82–5.01 |
//! | [`KiviStyle`] | per-channel K / per-token V + FP16 residual window | 4.99 |
//! | [`AtomStyle`] | channel reorder + per-group INT4 + INT8 outlier channels | 4.25–4.63 |
//! | [`QServeStyle`] | SmoothQuant scaling + reorder + per-group INT4 | 4.25 |
//! | [`TenderStyle`] | magnitude-grouped channels, power-of-2 scales | 4.07–4.10 |
//!
//! These are faithful *algorithmic* reimplementations of the published
//! methods' quantization granularity and outlier handling — the two axes
//! that determine both their accuracy and their runtime cost — not ports of
//! the authors' CUDA kernels. Each reports an [`OnlineCost`] so the
//! performance simulator can charge the online sorting / reordering /
//! mixed-precision overheads the paper identifies as their weakness.
//!
//! The crate holds every `KvQuantizer` that is not the served one, so
//! Oaken's own evaluation-only variants live here too: the N-group band
//! ablation of Table 3 ([`AblationQuantizer`]) and the per-head threshold
//! granularity extension ([`PerHeadProfiler`] / [`PerHeadQuantizer`]).
//!
//! Two capability axes matter to the serving stack beyond accuracy:
//!
//! * **streaming** — token-granular methods (FP16, Atom, QServe, Tender)
//!   implement `KvQuantizer::row_stream`, so the incremental cache and the
//!   paged pool append in O(d); per-channel/whole-tensor methods (KIVI,
//!   KVQuant) fall back to recompute-on-read, which also keeps them off
//!   the engine's batched-append/parallel-attention fast path (their views
//!   are not append-only);
//! * **prefix determinism** — only methods whose encoded rows are a pure
//!   function of the row itself may share prefix pages across sequences
//!   (`KvQuantizer::prefix_deterministic`); the calibrate-then-freeze and
//!   per-channel baselines report `false` and keep private page streams.
//!
//! [`OnlineCost`]: oaken_core::OnlineCost

mod ablation;
mod atom;
mod common;
mod fp16;
mod granularity;
mod half_float;
mod kivi;
mod kvquant;
mod qserve;
mod tender;

pub use ablation::{AblationQuantizer, BandKind, BandSpec};
pub use atom::AtomStyle;
pub use common::{quantize_groups_per_row, quantize_per_channel, ChannelOrder};
pub use fp16::Fp16Reference;
pub use granularity::{PerHeadProfiler, PerHeadQuantizer};
pub use half_float::{f16_bits_to_f32, f16_roundtrip, f32_to_f16_bits};
pub use kivi::KiviStyle;
pub use kvquant::KvQuantStyle;
pub use qserve::QServeStyle;
pub use tender::TenderStyle;

use oaken_core::KvQuantizer;

/// Returns every baseline plus the FP16 reference, boxed behind the shared
/// trait — the evaluation harness iterates this to build Table 2 rows.
pub fn all_baselines() -> Vec<Box<dyn KvQuantizer>> {
    vec![
        Box::new(Fp16Reference::new()),
        Box::new(KvQuantStyle::default()),
        Box::new(KiviStyle::default()),
        Box::new(TenderStyle::default()),
        Box::new(AtomStyle::default()),
        Box::new(QServeStyle::default()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oaken_core::KvKind;

    #[test]
    fn all_baselines_have_unique_names() {
        let bs = all_baselines();
        let mut names: Vec<&str> = bs.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn all_baselines_roundtrip_preserves_shape() {
        let data: Vec<f32> = (0..512).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        for b in all_baselines() {
            let out = b.roundtrip_matrix(&data, 4, 128, 0, KvKind::Key);
            assert_eq!(out.len(), data.len(), "{}", b.name());
            assert!(out.iter().all(|v| v.is_finite()), "{}", b.name());
        }
    }

    #[test]
    fn streaming_support_matches_granularity() {
        // Token-granular methods stream; per-channel/whole-tensor methods
        // fall back (documented in their module docs).
        let d = 64;
        for (name, expect_stream) in [
            ("fp16", true),
            ("atom", true),
            ("qserve", true),
            ("tender", true),
            ("kivi", false),
            ("kvquant", false),
        ] {
            let b = all_baselines()
                .into_iter()
                .find(|b| b.name() == name)
                .unwrap();
            assert_eq!(
                b.row_stream(d, 0, KvKind::Key).is_some(),
                expect_stream,
                "{name}"
            );
        }
    }

    #[test]
    fn streams_bit_exact_with_batch_after_any_prefix() {
        let d = 96;
        let rows = 13; // crosses every calib_rows=4 boundary
        let data: Vec<f32> = (0..rows * d)
            .map(|i| {
                let c = i % d;
                let base = ((i * 48271) % 9973) as f32 / 997.0 - 5.0;
                if c % 31 == 0 {
                    base * 12.0
                } else {
                    base
                }
            })
            .collect();
        for b in all_baselines() {
            for kind in KvKind::ALL {
                let Some(mut stream) = b.row_stream(d, 0, kind) else {
                    continue;
                };
                let mut view = Vec::new();
                for r in 0..rows {
                    stream.append_row(&data[r * d..(r + 1) * d], &mut view);
                    let batch = b.roundtrip_matrix(&data[..(r + 1) * d], r + 1, d, 0, kind);
                    assert_eq!(
                        batch.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        view.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                        "{} diverged at {} rows",
                        b.name(),
                        r + 1
                    );
                }
            }
        }
    }

    #[test]
    fn effective_bits_ordering_matches_paper() {
        // Tender < Atom/QServe < KVQuant/KIVI < FP16.
        let rows = 1024;
        let d = 4096;
        let eb = |q: &dyn KvQuantizer| q.effective_bits(rows, d);
        let fp16 = Fp16Reference::new();
        let kvq = KvQuantStyle::default();
        let kivi = KiviStyle::default();
        let atom = AtomStyle::default();
        let qserve = QServeStyle::default();
        let tender = TenderStyle::default();
        assert!(eb(&tender) < eb(&atom));
        assert!(eb(&atom) <= eb(&kvq));
        assert!(eb(&qserve) < eb(&kvq));
        assert!(eb(&kvq) < eb(&fp16));
        assert!(eb(&kivi) < eb(&fp16));
    }
}
