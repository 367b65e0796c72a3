//! Oaken's online-offline hybrid KV cache quantization algorithm (§4 of the
//! paper), the primary contribution of the ISCA '25 paper *"Oaken: Fast and
//! Efficient LLM Serving with Online-Offline Hybrid KV Cache Quantization"*.
//!
//! The algorithm has three cooperating parts:
//!
//! 1. **Threshold-based online-offline hybrid quantization**
//!    ([`profiler::OfflineProfiler`], [`thresholds::Thresholds`]) — four
//!    outlier thresholds per model/layer are computed *offline* from ~100
//!    profiling inferences; *online*, each per-token KV vector is split into
//!    an *outer* (large-magnitude outlier), *middle* (inlier), and *inner*
//!    (near-zero outlier) group, and per-group scaling factors are computed
//!    from simple min/max statistics (paper Eq. 1–3).
//! 2. **Group-shift quantization** ([`groupshift`]) — the outer and middle
//!    groups are shifted by the profiled thresholds so each group occupies a
//!    narrow range and can be quantized to 4/5 bits without mixed precision
//!    (paper Eq. 4).
//! 3. **Fused dense-and-sparse encoding** ([`encoding`]) — inliers go to a
//!    packed 4-bit dense matrix; outliers become 8-bit COO entries (6 index
//!    bits + 1 group bit + 1 sign bit) whose 4-bit magnitude is *fused into
//!    the zeroed dense slot* they came from, cutting outlier storage from 23
//!    to 8 bits per entry while keeping memory alignment.
//!
//! The [`OakenQuantizer`] ties the three together behind the [`KvQuantizer`]
//! trait shared with the baseline reimplementations in `oaken-baselines`.
//!
//! # Quickstart
//!
//! ```
//! use oaken_core::{GroupRatios, OakenConfig, OakenQuantizer, OfflineProfiler};
//!
//! // Offline: profile thresholds from sample KV vectors.
//! let config = OakenConfig::default(); // 4% outer / 90% middle / 6% inner
//! let mut profiler = OfflineProfiler::new(config.clone(), 1);
//! let sample: Vec<f32> = (0..256).map(|i| ((i * 37 % 97) as f32 - 48.0) / 8.0).collect();
//! profiler.observe(0, oaken_core::KvKind::Key, &sample);
//! let thresholds = profiler.finish();
//!
//! // Online: quantize a fresh vector with the profiled thresholds.
//! let quantizer = OakenQuantizer::new(config, thresholds);
//! let fused = quantizer.quantize_vector(&sample, 0, oaken_core::KvKind::Key)?;
//! let restored = quantizer.dequantize_vector(&fused, 0, oaken_core::KvKind::Key)?;
//! assert_eq!(restored.len(), sample.len());
//! # Ok::<(), oaken_core::OakenError>(())
//! ```

pub mod config;
pub mod encoding;
pub mod error;
pub mod groups;
pub mod groupshift;
pub mod kernel;
pub mod pipeline;
pub mod profiler;
pub mod quant;
pub mod thresholds;
pub mod traits;

pub use config::{BitWidths, GroupRatios, OakenConfig};
pub use encoding::{CooEntry, FusedVector, OutlierIter, ScaleSet};
pub use error::OakenError;
pub use groups::{classify, GroupKind, GroupStats};
pub use kernel::{decode_row_fused_into, EncodedReadPlan, FusedReadParams, RowDecode};
pub use pipeline::{CompressionReport, OakenQuantizer, OakenRowStream, OakenScratch};
pub use profiler::OfflineProfiler;
pub use quant::UniformQuantizer;
pub use thresholds::{KvKind, LayerThresholds, ModelThresholds, Thresholds};
pub use traits::{KvQuantizer, KvRowStream, OnlineCost};
