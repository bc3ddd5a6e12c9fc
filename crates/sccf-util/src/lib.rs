//! Shared utilities for the SCCF workspace.
//!
//! This crate deliberately has no dependency on the rest of the workspace so
//! every other crate can use it. It provides:
//!
//! * [`hash`] — an FxHash implementation and `FxHashMap`/`FxHashSet` aliases
//!   (integer-keyed maps are on every hot path of a recommender).
//! * [`checksum`] — table-driven CRC-32 (IEEE) protecting the WAL and
//!   checkpoint frames of the durability layer.
//! * [`codec`] — the one bounds-checked little-endian cursor, `put_*`
//!   appenders and `DecodeError` behind every `SCCF*` byte format and
//!   the fleet wire protocol.
//! * [`framing`] — length-prefixed CRC-32 frames: the record envelope of
//!   the WAL, the checkpoint files and the wire.
//! * [`topk`] — heap-based top-k selection over scored ids, the primitive
//!   behind every "retrieve the N best items/users" step.
//! * [`stats`] — online mean/variance (Welford), z-normalization as used by
//!   the integrating component (Eq. 16 of the paper), histogramming for the
//!   figure reproductions.
//! * [`rng`] — deterministic seed derivation so every experiment is
//!   reproducible from a single root seed.
//! * [`sparse`] — epoch-stamped sparse accumulator / set slabs that make
//!   the per-event serving path allocation-free and O(touched), never
//!   O(catalog).
//! * [`flags`] — the one `--key value` command-line grammar behind every
//!   entry point (`sccf`, `serve-shard`, `route`, the `--world-*` flags).
//! * [`json`] — a write-only JSON value tree, the one renderer behind
//!   every `BENCH_*.json` artifact.
//! * [`table`] — minimal markdown/TSV table rendering for the `repro`
//!   harness output.
//! * [`timer`] — the stopwatch and the one latency recorder
//!   ([`TimingStats`]: Welford mean plus fixed log-bucket percentiles,
//!   both mergeable exactly) behind Table III and `ServingStats`.

pub mod checksum;
pub mod codec;
pub mod flags;
pub mod framing;
pub mod hash;
pub mod json;
pub mod rng;
pub mod sparse;
pub mod stats;
pub mod table;
pub mod timer;
pub mod topk;

pub use checksum::{crc32, Crc32};
pub use flags::Flags;
pub use hash::{FxHashMap, FxHashSet};
pub use json::Json;
pub use sparse::{SparseScores, StampSet};
pub use stats::{zscore_normalize, Histogram, OnlineStats};
pub use table::Table;
pub use timer::{Stopwatch, TimingStats};
pub use topk::TopK;
