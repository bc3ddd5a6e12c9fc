//! # sccf-index
//!
//! Similarity-search substrate — the Faiss substitute the paper's
//! real-time neighbor identification relies on (§III-C.2 cites Faiss
//! [Johnson et al.]; this crate provides the same role on CPU). Three
//! structures, each on a serving path:
//!
//! * [`flat::FlatIndex`] — the exact cosine index behind Eq. 11, in
//!   both tiers of the two-tier neighborhood: the updatable user index
//!   the real-time engine mutates after every event, and the
//!   build-once, `Arc`-shareable, snapshot-encodable whole-population
//!   frozen *global tier* (skip-aware scan). It is also the ground
//!   truth the approximate structures are tested against.
//! * [`hnsw::HnswIndex`] — hierarchical navigable small-world graph,
//!   the logarithmic-time ANN structure of production vector stores
//!   (the UI-side item index and the HNSW tier mode).
//! * [`tier::FrozenTierAccel`] — [`FrozenTierMode`] acceleration over
//!   the frozen tier (seeded HNSW candidates, exact rerank).
//!
//! ```
//! use sccf_index::FlatIndex;
//!
//! let mut idx = FlatIndex::new(2);
//! idx.add(&[1.0, 0.0]);
//! idx.add(&[0.0, 1.0]);
//! let hits = idx.search(&[0.9, 0.1], 1, None);
//! assert_eq!(hits[0].id, 0);
//! ```

pub mod flat;
pub mod hnsw;
pub mod metric;
pub mod tier;

pub use flat::{FlatIndex, FrozenDecodeError};
pub use hnsw::{HnswConfig, HnswIndex, HnswScratch};
pub use metric::Metric;
/// Decode failure of the accelerated-tier sections ([`hnsw`], [`tier`]).
pub use sccf_util::codec::DecodeError as CodecError;
pub use tier::{FrozenTierAccel, FrozenTierMode, TierScratch};
