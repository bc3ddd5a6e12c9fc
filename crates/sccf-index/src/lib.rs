//! # sccf-index
//!
//! Similarity-search substrate — the Faiss substitute the paper's
//! real-time neighbor identification relies on (§III-C.2 cites Faiss
//! [Johnson et al.]; this crate provides the same roles on CPU):
//!
//! * [`flat::FlatIndex`] — exact linear-scan search (perfect recall; the
//!   ground truth the approximate index is tested against).
//! * [`ivf::IvfIndex`] — inverted-file index with a k-means coarse
//!   quantizer ([`kmeans`]), `nprobe`-bounded search.
//! * [`hnsw::HnswIndex`] — hierarchical navigable small-world graph,
//!   the logarithmic-time ANN structure of production vector stores.
//! * [`sq::SqIndex`] — scalar-quantized (SQ8) flat index: 4× smaller
//!   storage with asymmetric full-precision queries, the Faiss
//!   `IndexScalarQuantizer` role for memory-bound serving shards.
//! * [`pq::PqIndex`] — product quantization (`m` bytes per vector) with
//!   asymmetric-distance search, the Faiss `IndexPQ` role for the
//!   billion-row regime where even SQ8 is too large.
//! * [`dynamic::DynamicIndex`] — `RwLock`-wrapped flat index supporting
//!   concurrent search and per-id updates, the structure the real-time
//!   engine mutates after every user event.
//! * [`frozen::FrozenUserIndex`] — immutable, build-once,
//!   `Arc`-shareable whole-population index: the frozen *global tier*
//!   of the sharded engine's two-tier Eq. 11 search (skip-aware scan,
//!   snapshot-encodable).
//!
//! ```
//! use sccf_index::{FlatIndex, Metric};
//!
//! let mut idx = FlatIndex::new(2, Metric::Cosine);
//! idx.add(&[1.0, 0.0]);
//! idx.add(&[0.0, 1.0]);
//! let hits = idx.search(&[0.9, 0.1], 1, None);
//! assert_eq!(hits[0].id, 0);
//! ```

pub mod dynamic;
pub mod flat;
pub mod frozen;
pub mod hnsw;
pub mod ivf;
pub mod kmeans;
pub mod metric;
pub mod pq;
pub mod sq;
pub mod tier;

pub use dynamic::DynamicIndex;
pub use flat::FlatIndex;
pub use frozen::{FrozenDecodeError, FrozenUserIndex};
pub use hnsw::{HnswConfig, HnswIndex, HnswScratch};
pub use ivf::IvfIndex;
pub use metric::Metric;
pub use pq::{PqConfig, PqIndex};
/// Decode failure of the accelerated-tier sections ([`hnsw`], [`tier`]).
pub use sccf_util::codec::DecodeError as CodecError;
pub use sq::{SqCodebook, SqIndex};
pub use tier::{FrozenTierAccel, FrozenTierMode, TierScratch};
