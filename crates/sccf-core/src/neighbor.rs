//! The frozen global tier of two-tier cross-shard Eq. 11
//! neighborhoods.
//!
//! Since the engine was sharded, each shard's mutable user index holds
//! only the users the shard *owns*, so Eq. 11 neighborhoods silently
//! shrank to in-shard approximations — a recall loss that grows with
//! shard count, against the paper's central claim that quality comes
//! from fresh, full-population user neighbors. This module restores the
//! full population without giving up shard-local writes:
//!
//! * [`GlobalNeighborSnapshot`] — an epoch-stamped, `Arc`-shareable
//!   bundle of a frozen [`sccf_index::FlatIndex`] over every user's
//!   vector and a flat CSR table of frozen recent windows (the Eq. 12 δ
//!   input for neighbors whose live rings live on another shard). Built
//!   once per refresh from the shards' own `export_user` state
//!   (`sccf_serving::sharded::ShardedEngine::refresh_global_tier`),
//!   swapped into every worker behind its `Arc` — never mutated.
//! * [`crate::Sccf`] merges it with its own mutable index (the *fresh
//!   local delta*): local candidates are collected first and marked in
//!   a `StampSet`, then the snapshot is searched with a skip over
//!   marked-or-owned users — so a user's **freshest** vector always
//!   wins — and the union is re-ranked top-β with the standard `Scored`
//!   ordering.
//! * [`GlobalNeighborSnapshot::check_fits`] is the one gate between a
//!   snapshot and an engine: population, vector dimension and catalog
//!   must match, or a decodable artifact could panic the next slate.
//!
//! With no global tier installed, the merged search degenerates to
//! exactly the shard-local scan the engine always did (bit-identical —
//! pinned by `tests/sharded.rs`); with a refresh after every event, an
//! N-shard fleet's Eq. 11 neighbor sets equal the N=1 plain engine's
//! (pinned by `tests/serving_api.rs`). Real deployments sit between the
//! two: a refresh cadence buys cross-shard recall at bounded staleness
//! (`docs/ARCHITECTURE.md` discusses the trade-off,
//! `docs/OPERATIONS.md` the cadence).

use std::sync::Arc;

use sccf_index::{
    CodecError, FlatIndex, FrozenDecodeError, FrozenTierAccel, FrozenTierMode, TierScratch,
};
use sccf_util::codec::{put_blob, put_u32s, put_u64, Reader};
use sccf_util::topk::Scored;

const TIER_MAGIC: &[u8; 8] = b"SCCFGT02";

/// Why a [`GlobalNeighborSnapshot`] encoding could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierDecodeError {
    /// Missing or wrong magic header.
    BadMagic,
    /// Bytes ran out mid-record (or a length prefix overflowed).
    Truncated,
    /// The window offset table is not monotone or does not cover the
    /// item payload.
    BadWindows,
    /// The embedded frozen index failed to decode.
    Index(FrozenDecodeError),
    /// The appended acceleration section failed to decode.
    Accel(CodecError),
    /// The embedded index's population differs from the window table's.
    PopulationMismatch { index: usize, windows: usize },
}

impl std::fmt::Display for TierDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a global neighbor-tier snapshot"),
            Self::Truncated => write!(f, "global neighbor-tier snapshot is truncated"),
            Self::BadWindows => write!(f, "global neighbor-tier window table is corrupt"),
            Self::Index(e) => write!(f, "embedded frozen index: {e}"),
            Self::Accel(e) => write!(f, "embedded tier acceleration: {e}"),
            Self::PopulationMismatch { index, windows } => write!(
                f,
                "frozen index covers {index} users but the window table covers {windows}"
            ),
        }
    }
}

impl std::error::Error for TierDecodeError {}

impl From<CodecError> for TierDecodeError {
    /// The outer envelope's own framing failures; bytes left over after
    /// the last section are a length that lied, i.e. `Truncated`.
    /// (Failures *inside* the embedded sections are wrapped explicitly
    /// as [`TierDecodeError::Index`] / [`TierDecodeError::Accel`].)
    fn from(e: CodecError) -> Self {
        match e {
            CodecError::BadMagic => Self::BadMagic,
            CodecError::Truncated | CodecError::Invalid(_) => Self::Truncated,
        }
    }
}

/// Why a [`GlobalNeighborSnapshot`] cannot serve an engine
/// ([`GlobalNeighborSnapshot::check_fits`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TierMismatch {
    /// The snapshot covers another population.
    Population { tier: usize, engine: usize },
    /// The snapshot's vectors have another dimension.
    Dimension { tier: usize, engine: usize },
    /// A frozen window names an item outside the engine's catalog.
    UnknownItem { item: u32, n_items: usize },
}

impl std::fmt::Display for TierMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Population { tier, engine } => write!(
                f,
                "global tier covers {tier} users but this engine serves {engine}"
            ),
            Self::Dimension { tier, engine } => write!(
                f,
                "global tier vectors are {tier}-dimensional but this engine indexes {engine}"
            ),
            Self::UnknownItem { item, n_items } => write!(
                f,
                "global tier window item {item} outside the catalog of {n_items}"
            ),
        }
    }
}

impl std::error::Error for TierMismatch {}

/// An epoch-stamped, immutable, whole-population neighbor snapshot:
/// frozen user vectors for Eq. 11 plus frozen recent windows for
/// Eq. 12. See the [module docs](self) for how it is built, swapped
/// and merged.
#[derive(Clone)]
pub struct GlobalNeighborSnapshot {
    epoch: u64,
    index: FlatIndex,
    /// CSR offsets into `win_items`: user `u`'s frozen window is
    /// `win_items[win_offsets[u] .. win_offsets[u + 1]]`, oldest first.
    win_offsets: Vec<u32>,
    win_items: Vec<u32>,
    /// Optional acceleration structure over the frozen index
    /// ([`FrozenTierMode::Hnsw`]), built at refresh time; `None` keeps the exact flat scan. `Arc` because
    /// the structure is immutable and snapshot clones share it.
    accel: Option<Arc<FrozenTierAccel>>,
}

impl std::fmt::Debug for GlobalNeighborSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalNeighborSnapshot")
            .field("epoch", &self.epoch)
            .field("n_users", &self.index.len())
            .field("covered", &self.index.covered())
            .field("tier_mode", &self.tier_mode())
            .finish_non_exhaustive()
    }
}

impl GlobalNeighborSnapshot {
    /// Build a snapshot from per-user export entries
    /// `(user, index vector, recent window)` over a population of
    /// `n_users`. The vector is the user's representation; the window
    /// is the user's last
    /// `recent_window` items, oldest first — exactly the live ring's
    /// contents at export time. Users without an entry stay uncovered
    /// (zero vector, empty window).
    pub fn build(
        epoch: u64,
        n_users: usize,
        index_dim: usize,
        entries: impl IntoIterator<Item = (u32, Vec<f32>, Vec<u32>)>,
    ) -> Self {
        let mut windows: Vec<Vec<u32>> = vec![Vec::new(); n_users];
        let rows = entries.into_iter().map(|(user, vec, window)| {
            windows[user as usize] = window;
            (user, vec)
        });
        let index = FlatIndex::from_rows(n_users, index_dim, rows);
        let mut win_offsets = Vec::with_capacity(n_users + 1);
        let mut win_items = Vec::new();
        win_offsets.push(0u32);
        for w in &windows {
            win_items.extend_from_slice(w);
            win_offsets.push(win_items.len() as u32);
        }
        Self {
            epoch,
            index,
            win_offsets,
            win_items,
            accel: None,
        }
    }

    /// [`build`](Self::build), then construct the acceleration
    /// structure `mode` asks for over the frozen vectors — the refresh
    /// pipeline's entry point. `seed` drives the graph's level
    /// sampling so rebuilding from identical exports is
    /// byte-identical. [`FrozenTierMode::Flat`] builds nothing and is
    /// bit-for-bit the historical snapshot.
    pub fn build_with_mode(
        epoch: u64,
        n_users: usize,
        index_dim: usize,
        mode: FrozenTierMode,
        seed: u64,
        entries: impl IntoIterator<Item = (u32, Vec<f32>, Vec<u32>)>,
    ) -> Self {
        let mut s = Self::build(epoch, n_users, index_dim, entries);
        s.accel = FrozenTierAccel::build(mode, &s.index, seed).map(Arc::new);
        s
    }

    /// Delta rebuild: a new epoch-stamped snapshot in which only the
    /// supplied users' rows differ from `prev` — every other user keeps
    /// `prev`'s vector bytes and frozen window verbatim. When the
    /// supplied entries are exactly the users whose state changed since
    /// `prev` was exported, the result is **bit-identical** to a full
    /// [`GlobalNeighborSnapshot::build_with_mode`] over a complete
    /// re-export at the same watermark: unchanged users would re-export
    /// identical state, so splicing beats re-exporting without moving a
    /// single float. The acceleration structure is rebuilt from the
    /// patched index with the same `seed` — seeded builds over
    /// identical slabs are byte-identical, which is what keeps the
    /// equivalence through the accelerated modes too. Cost: one slab +
    /// CSR splice (memcpy-bound) plus accel build; the expensive
    /// per-user export/infer work is O(dirty), not O(population).
    pub fn build_delta_with_mode(
        prev: &Self,
        epoch: u64,
        mode: FrozenTierMode,
        seed: u64,
        entries: impl IntoIterator<Item = (u32, Vec<f32>, Vec<u32>)>,
    ) -> Self {
        let n_users = prev.n_users();
        let mut new_windows: Vec<Option<Vec<u32>>> = vec![None; n_users];
        let rows = entries.into_iter().map(|(user, vec, window)| {
            new_windows[user as usize] = Some(window);
            (user, vec)
        });
        let index = prev.index.with_rows(rows);
        let mut win_offsets = Vec::with_capacity(n_users + 1);
        let mut win_items = Vec::with_capacity(prev.win_items.len());
        win_offsets.push(0u32);
        for (u, replaced) in new_windows.iter().enumerate() {
            match replaced {
                Some(w) => win_items.extend_from_slice(w),
                None => win_items.extend_from_slice(prev.frozen_window(u as u32)),
            }
            win_offsets.push(win_items.len() as u32);
        }
        let accel = FrozenTierAccel::build(mode, &index, seed).map(Arc::new);
        Self {
            epoch,
            index,
            win_offsets,
            win_items,
            accel,
        }
    }

    /// The refresh epoch this snapshot was built at (monotonically
    /// increasing across refreshes; reported via serving stats).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Population size (covered or not).
    pub fn n_users(&self) -> usize {
        self.index.len()
    }

    /// Users this snapshot holds a usable vector for.
    pub fn covered_users(&self) -> usize {
        self.index.covered()
    }

    /// The embedded frozen vector index.
    pub fn index(&self) -> &FlatIndex {
        &self.index
    }

    /// Whether this snapshot can serve an engine of `n_users` users,
    /// `dim`-dimensional vectors and `n_items` items. Every installer
    /// asks before the tier goes live: a decodable artifact that fails
    /// here would panic the next slate — a dimension mismatch in the
    /// frozen scan, a window item past the Eq. 12 accumulator, or a user
    /// id past the engine's population in the merge's skip set.
    pub fn check_fits(
        &self,
        n_users: usize,
        dim: usize,
        n_items: usize,
    ) -> Result<(), TierMismatch> {
        if self.n_users() != n_users {
            return Err(TierMismatch::Population {
                tier: self.n_users(),
                engine: n_users,
            });
        }
        if self.index.dim() != dim {
            return Err(TierMismatch::Dimension {
                tier: self.index.dim(),
                engine: dim,
            });
        }
        match self.win_items.iter().copied().max() {
            Some(item) if item as usize >= n_items => {
                Err(TierMismatch::UnknownItem { item, n_items })
            }
            _ => Ok(()),
        }
    }

    /// The frozen recent window of `user` (global id), oldest first —
    /// the Eq. 12 δ input for a neighbor owned by another shard. Empty
    /// when the user is not covered.
    pub fn frozen_window(&self, user: u32) -> &[u32] {
        let u = user as usize;
        if u + 1 >= self.win_offsets.len() {
            return &[];
        }
        &self.win_items[self.win_offsets[u] as usize..self.win_offsets[u + 1] as usize]
    }

    /// Append the exact flat-scan top-`beta` users for `query` to `out`,
    /// skipping every user for which `skip` returns true (the caller
    /// masks users its fresh tier already covers, plus the querying
    /// user). Appended entries are sorted by descending score.
    pub fn search_append(
        &self,
        query: &[f32],
        beta: usize,
        skip: &dyn Fn(u32) -> bool,
        out: &mut Vec<Scored>,
    ) {
        self.index.search_append(query, beta, skip, out);
    }

    /// The serving form of [`GlobalNeighborSnapshot::search_append`]:
    /// an accelerated tier runs its candidate → exact-rerank pipeline
    /// out of `scratch`, so steady-state serving allocates nothing; a
    /// flat tier ignores the scratch. Output semantics are identical
    /// either way (appended entries sorted descending, `skip`-filtered,
    /// exact scores).
    pub fn search_append_with(
        &self,
        query: &[f32],
        beta: usize,
        skip: &dyn Fn(u32) -> bool,
        scratch: &mut TierScratch,
        out: &mut Vec<Scored>,
    ) {
        match &self.accel {
            Some(a) => a.search_append(&self.index, query, beta, skip, scratch, out),
            None => self.index.search_append(query, beta, skip, out),
        }
    }

    /// How this snapshot searches its frozen tier (stats surface).
    pub fn tier_mode(&self) -> FrozenTierMode {
        self.accel
            .as_ref()
            .map_or(FrozenTierMode::Flat, |a| a.mode())
    }

    /// Resident bytes of the acceleration structure, 0 for flat.
    pub fn tier_bytes(&self) -> usize {
        self.accel.as_ref().map_or(0, |a| a.bytes())
    }

    /// Serialize: magic, epoch, the window CSR (offset table + items),
    /// the length-prefixed embedded frozen index, and the
    /// length-prefixed acceleration section (length 0 = flat), all
    /// little-endian.
    pub fn encode(&self) -> Vec<u8> {
        let index_bytes = self.index.encode();
        let mut out = Vec::with_capacity(
            48 + self.win_offsets.len() * 4 + self.win_items.len() * 4 + index_bytes.len(),
        );
        out.extend_from_slice(TIER_MAGIC);
        put_u64(&mut out, self.epoch);
        put_u64(&mut out, (self.win_offsets.len() - 1) as u64);
        put_u32s(&mut out, &self.win_offsets);
        put_u32s(&mut out, &self.win_items);
        put_blob(&mut out, &index_bytes);
        match &self.accel {
            None => put_u64(&mut out, 0),
            Some(a) => {
                // Length-prefix in place: the section can be megabytes.
                let len_at = out.len();
                put_u64(&mut out, 0);
                let n = a.encode_into(&mut out);
                out[len_at..len_at + 8].copy_from_slice(&(n as u64).to_le_bytes());
            }
        }
        out
    }

    /// Decode an encoding produced by [`GlobalNeighborSnapshot::encode`].
    /// Every length is proven to fit the remaining bytes before it is
    /// used (the shared `sccf_util::codec` discipline): corrupt prefixes
    /// surface a typed error, never an overflow panic.
    pub fn decode(bytes: &[u8]) -> Result<Self, TierDecodeError> {
        let mut r = Reader::new(bytes);
        r.magic(TIER_MAGIC)?;
        let epoch = r.u64()?;
        let n = r.len_u64()?;
        let win_offsets = r.u32s(n.checked_add(1).ok_or(TierDecodeError::Truncated)?)?;
        if win_offsets.first() != Some(&0) || win_offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(TierDecodeError::BadWindows);
        }
        let items_len = *win_offsets.last().expect("n + 1 ≥ 1 offsets") as usize;
        let win_items = r.u32s(items_len)?;
        let index = FlatIndex::decode(r.blob()?).map_err(TierDecodeError::Index)?;
        if index.len() != n {
            return Err(TierDecodeError::PopulationMismatch {
                index: index.len(),
                windows: n,
            });
        }
        let accel_bytes = r.blob()?;
        let accel = if accel_bytes.is_empty() {
            None
        } else {
            let mut section = Reader::new(accel_bytes);
            let a = FrozenTierAccel::decode_from(&mut section, &index)
                .map_err(TierDecodeError::Accel)?;
            section.finish().map_err(TierDecodeError::Accel)?;
            Some(Arc::new(a))
        };
        r.finish()?;
        Ok(Self {
            epoch,
            index,
            win_offsets,
            win_items,
            accel,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> GlobalNeighborSnapshot {
        GlobalNeighborSnapshot::build(
            7,
            4,
            2,
            vec![
                (0, vec![1.0, 0.0], vec![3, 4]),
                (2, vec![0.0, 1.0], vec![5]),
                (3, vec![0.7, 0.7], vec![]),
            ],
        )
    }

    #[test]
    fn windows_and_search_cover_only_supplied_users() {
        let s = snapshot();
        assert_eq!(s.epoch(), 7);
        assert_eq!(s.n_users(), 4);
        assert_eq!(s.covered_users(), 3);
        assert_eq!(s.frozen_window(0), &[3, 4]);
        assert_eq!(s.frozen_window(1), &[] as &[u32]);
        assert_eq!(s.frozen_window(2), &[5]);
        assert_eq!(s.frozen_window(3), &[] as &[u32]);
        let mut hits = Vec::new();
        s.search_append(&[1.0, 0.0], 4, &|_| false, &mut hits);
        assert_eq!(hits.len(), 3, "user 1 has no vector");
        assert_eq!(hits[0].id, 0);
        hits.clear();
        s.search_append(&[1.0, 0.0], 4, &|u| u == 0, &mut hits);
        assert!(hits.iter().all(|h| h.id != 0));
    }

    #[test]
    fn delta_build_matches_full_rebuild_bitwise() {
        let prev = snapshot();
        // User 2's window grows, user 1 becomes covered — the two ways
        // a delta can change CSR geometry.
        let delta: Vec<(u32, Vec<f32>, Vec<u32>)> = vec![
            (2, vec![0.2, 0.9], vec![5, 6, 7]),
            (1, vec![0.5, 0.5], vec![8]),
        ];
        let patched = GlobalNeighborSnapshot::build_delta_with_mode(
            &prev,
            8,
            FrozenTierMode::Flat,
            42,
            delta.clone(),
        );
        let full = GlobalNeighborSnapshot::build(
            8,
            4,
            2,
            vec![
                (0, vec![1.0, 0.0], vec![3, 4]),
                (1, vec![0.5, 0.5], vec![8]),
                (2, vec![0.2, 0.9], vec![5, 6, 7]),
                (3, vec![0.7, 0.7], vec![]),
            ],
        );
        assert_eq!(patched.encode(), full.encode());
        assert_eq!(patched.covered_users(), 4);

        // Empty delta at a new epoch differs only in the epoch stamp.
        let noop = GlobalNeighborSnapshot::build_delta_with_mode(
            &prev,
            prev.epoch(),
            FrozenTierMode::Flat,
            42,
            Vec::new(),
        );
        assert_eq!(noop.encode(), prev.encode());

        // Through an accelerated mode the seeded rebuild keeps the
        // byte-identity too.
        let prev_fast = GlobalNeighborSnapshot::build_with_mode(
            7,
            4,
            2,
            FrozenTierMode::Hnsw { ef: 4 },
            42,
            vec![
                (0, vec![1.0, 0.0], vec![3, 4]),
                (2, vec![0.0, 1.0], vec![5]),
                (3, vec![0.7, 0.7], vec![]),
            ],
        );
        let patched_fast = GlobalNeighborSnapshot::build_delta_with_mode(
            &prev_fast,
            8,
            FrozenTierMode::Hnsw { ef: 4 },
            42,
            delta.clone(),
        );
        let full_fast = GlobalNeighborSnapshot::build_with_mode(
            8,
            4,
            2,
            FrozenTierMode::Hnsw { ef: 4 },
            42,
            vec![
                (0, vec![1.0, 0.0], vec![3, 4]),
                (1, vec![0.5, 0.5], vec![8]),
                (2, vec![0.2, 0.9], vec![5, 6, 7]),
                (3, vec![0.7, 0.7], vec![]),
            ],
        );
        assert_eq!(patched_fast.encode(), full_fast.encode());
    }

    #[test]
    fn encode_decode_roundtrips_and_guards_corruption() {
        let s = snapshot();
        let bytes = s.encode();
        let back = GlobalNeighborSnapshot::decode(&bytes).unwrap();
        assert_eq!(back.epoch(), s.epoch());
        assert_eq!(back.n_users(), s.n_users());
        for u in 0..4u32 {
            assert_eq!(back.frozen_window(u), s.frozen_window(u));
            assert_eq!(back.index().vector(u), s.index().vector(u));
        }

        let err = |b: &[u8]| GlobalNeighborSnapshot::decode(b).expect_err("must not decode");
        assert_eq!(err(b"short"), TierDecodeError::Truncated);
        let mut bad = bytes.clone();
        bad[3] ^= 0xFF;
        assert_eq!(err(&bad), TierDecodeError::BadMagic);
        // Losing the tail truncates the accel length word.
        assert_eq!(err(&bytes[..bytes.len() - 2]), TierDecodeError::Truncated);
        // Corrupting the embedded index payload surfaces as an index error.
        let mut chopped = bytes.clone();
        let idx_len_at = chopped.len() - 8 - s.index().encode().len() - 8;
        let short_index = (s.index().encode().len() - 2) as u64;
        chopped[idx_len_at..idx_len_at + 8].copy_from_slice(&short_index.to_le_bytes());
        assert!(matches!(err(&chopped), TierDecodeError::Index(_)));
        // A corrupt population count near u64::MAX trips the checked_mul
        // guard instead of overflowing.
        let mut huge = bytes.clone();
        huge[16..24].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(err(&huge), TierDecodeError::Truncated);
        // A non-monotone offset table is rejected as corrupt windows.
        let mut unsorted = bytes;
        unsorted[24..28].copy_from_slice(&9u32.to_le_bytes());
        assert!(matches!(
            GlobalNeighborSnapshot::decode(&unsorted),
            Err(TierDecodeError::BadWindows)
        ));
    }

    /// Regression, reachable from `InstallTier` bytes: an `SCCFAC01`
    /// section wrapping an empty HNSW graph that declares `u32::MAX`
    /// layers used to size a 103 GB allocation.
    #[test]
    fn accel_section_with_a_huge_layer_count_is_typed() {
        use sccf_index::{HnswConfig, HnswIndex, Metric};
        let mut bytes = snapshot().encode();
        bytes.truncate(bytes.len() - 8); // drop the flat "no accel" length word
        let mut section = b"SCCFAC01".to_vec();
        section.push(1); // hnsw mode
        put_u64(&mut section, 16); // ef
        put_u64(&mut section, 0); // no ids
        HnswIndex::new(2, Metric::Cosine, HnswConfig::default()).encode_into(&mut section);
        let layers_at = section.len() - 4;
        section[layers_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        put_blob(&mut bytes, &section);
        assert_eq!(
            GlobalNeighborSnapshot::decode(&bytes).err(),
            Some(TierDecodeError::Accel(CodecError::Truncated))
        );
    }

    #[test]
    fn accelerated_snapshot_roundtrips_and_searches_like_flat() {
        // A population large enough for a real graph; exhaustive ef so
        // the accelerated search must equal the flat scan bit-for-bit.
        let n = 64usize;
        let entries: Vec<(u32, Vec<f32>, Vec<u32>)> = (0..n as u32)
            .map(|u| {
                let a = (u as f32 * 0.37).sin();
                let b = (u as f32 * 0.11).cos();
                (u, vec![a, b], vec![u % 5])
            })
            .collect();
        let flat = GlobalNeighborSnapshot::build(3, n, 2, entries.clone());
        let fast = GlobalNeighborSnapshot::build_with_mode(
            3,
            n,
            2,
            FrozenTierMode::Hnsw { ef: n },
            42,
            entries,
        );
        assert_eq!(fast.tier_mode(), FrozenTierMode::Hnsw { ef: n });
        assert!(fast.tier_bytes() > 0);
        assert_eq!(flat.tier_mode(), FrozenTierMode::Flat);
        assert_eq!(flat.tier_bytes(), 0);

        let mut scratch = TierScratch::new();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for q in [[1.0f32, 0.2], [-0.4, 0.9]] {
            a.clear();
            b.clear();
            flat.search_append(&q, 10, &|u| u % 7 == 0, &mut a);
            fast.search_append_with(&q, 10, &|u| u % 7 == 0, &mut scratch, &mut b);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }

        // Roundtrip keeps the acceleration structure byte-identically.
        let bytes = fast.encode();
        let back = GlobalNeighborSnapshot::decode(&bytes).unwrap();
        assert_eq!(back.tier_mode(), fast.tier_mode());
        assert_eq!(back.tier_bytes(), fast.tier_bytes());
        assert_eq!(back.encode(), bytes);
        for q in [[0.3f32, -0.8], [-0.6, 0.2]] {
            a.clear();
            b.clear();
            fast.search_append_with(&q, 8, &|_| false, &mut scratch, &mut a);
            back.search_append_with(&q, 8, &|_| false, &mut scratch, &mut b);
            assert_eq!(a, b);
        }
    }
}
