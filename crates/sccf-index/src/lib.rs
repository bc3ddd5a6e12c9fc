//! # sccf-index
//!
//! Similarity-search substrate — the Faiss substitute the paper's
//! real-time neighbor identification relies on (§III-C.2 cites Faiss
//! [Johnson et al.]; this crate provides the same role on CPU). Four
//! structures, each on a serving path:
//!
//! * [`flat::FlatIndex`] — exact linear-scan search with per-id
//!   updates: the cosine user index (Eq. 11) the real-time engine
//!   mutates after every event, and the ground truth the approximate
//!   structures are tested against.
//! * [`hnsw::HnswIndex`] — hierarchical navigable small-world graph,
//!   the logarithmic-time ANN structure of production vector stores
//!   (the UI-side item index and the HNSW tier mode).
//! * [`frozen::FrozenUserIndex`] — immutable, build-once,
//!   `Arc`-shareable whole-population index: the frozen *global tier*
//!   of the sharded engine's two-tier Eq. 11 search (skip-aware scan,
//!   snapshot-encodable).
//! * [`tier::FrozenTierAccel`] — [`FrozenTierMode`] acceleration over
//!   the frozen tier (seeded HNSW candidates, exact rerank).
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

pub mod flat;
pub mod frozen;
pub mod hnsw;
pub mod metric;
pub mod tier;

pub use flat::FlatIndex;
pub use frozen::{FrozenDecodeError, FrozenUserIndex};
pub use hnsw::{HnswConfig, HnswIndex, HnswScratch};
pub use metric::Metric;
/// Decode failure of the accelerated-tier sections ([`hnsw`], [`tier`]).
pub use sccf_util::codec::DecodeError as CodecError;
pub use tier::{FrozenTierAccel, FrozenTierMode, TierScratch};
