//! Immutable, build-once user-vector index — the *frozen global tier*
//! of the two-tier cross-shard neighborhood search.
//!
//! A sharded fleet's mutable user index holds only the shard's own
//! users, so Eq. 11 neighborhoods degrade to in-shard approximations.
//! The cure is a second, *immutable* tier: a periodically rebuilt
//! whole-population index every shard shares behind one `Arc`.
//! [`FrozenUserIndex`] is that tier's search structure:
//!
//! * **Build-once.** Constructed from a complete set of rows
//!   ([`FrozenUserIndex::from_rows`]); no update path exists, so it can
//!   be shared across worker threads without locks — freshness comes
//!   from *swapping the whole index* for a newer epoch, never from
//!   mutating it.
//! * **Compact.** One contiguous `n × d` slab plus pre-computed norms,
//!   exactly the [`crate::FlatIndex`] layout — same scan, same floats,
//!   same tie-breaks, so a frozen search over the same vectors is
//!   bit-identical to a flat search (pinned by `tests/properties.rs`).
//! * **Skip-aware search.** [`FrozenUserIndex::search_append`] takes a
//!   `skip` predicate so the caller can mask the users its *fresh*
//!   local tier already covers — the merged two-tier search keeps the
//!   freshest vector per user by construction.
//! * **Snapshot-encodable.** [`FrozenUserIndex::encode`] /
//!   [`FrozenUserIndex::decode`] round-trip the slab (norms are
//!   recomputed, they are derived state), with the same `checked_mul`
//!   length guards as the engine snapshot decoder.
//!
//! The metric is fixed to cosine — this index exists to serve Eq. 11
//! (`cos(m_u, m_v)`), and freezing the metric keeps the bit-identity
//! contract with the mutable tier simple.
//!
//! ```
//! use sccf_index::FrozenUserIndex;
//!
//! // Three users; user 1 has no vector yet (all-zero ⇒ invisible).
//! let idx = FrozenUserIndex::from_rows(
//!     3,
//!     2,
//!     [(0, vec![1.0, 0.0]), (2, vec![0.6, 0.8])],
//! );
//! assert_eq!(idx.len(), 3);
//! assert_eq!(idx.covered(), 2);
//!
//! let mut hits = Vec::new();
//! idx.search_append(&[1.0, 0.0], 2, &|_| false, &mut hits);
//! assert_eq!(hits[0].id, 0);
//!
//! // Skip user 0 (say, a shard's fresh delta owns it): only 2 remains.
//! hits.clear();
//! idx.search_append(&[1.0, 0.0], 2, &|u| u == 0, &mut hits);
//! assert_eq!(hits.len(), 1);
//! assert_eq!(hits[0].id, 2);
//!
//! let restored = FrozenUserIndex::decode(&idx.encode()).unwrap();
//! assert_eq!(restored.vector(2), idx.vector(2));
//! ```

use sccf_util::codec::{put_f32s, put_u32, put_u64, DecodeError, Reader};
use sccf_util::topk::{Scored, TopK};

/// Why a frozen-index encoding could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrozenDecodeError {
    /// Missing or wrong magic header.
    BadMagic,
    /// Bytes ran out mid-record (or a length prefix overflowed).
    Truncated,
    /// The header declares a zero dimension.
    ZeroDim,
}

impl std::fmt::Display for FrozenDecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a frozen user-index encoding"),
            Self::Truncated => write!(f, "frozen user-index encoding is truncated"),
            Self::ZeroDim => write!(f, "frozen user-index encoding declares dimension 0"),
        }
    }
}

impl std::error::Error for FrozenDecodeError {}

impl From<DecodeError> for FrozenDecodeError {
    /// The slab must fill the stream exactly; leftover bytes read as a
    /// length that does not match, i.e. `Truncated`.
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::BadMagic => Self::BadMagic,
            DecodeError::Truncated | DecodeError::Invalid(_) => Self::Truncated,
        }
    }
}

const FROZEN_MAGIC: &[u8; 8] = b"SCCFFZ01";

/// Immutable cosine index over a full user population. See the
/// [module docs](self) for the role it plays in two-tier search.
#[derive(Debug, Clone)]
pub struct FrozenUserIndex {
    dim: usize,
    /// Row-major `n × dim` slab; row id = global user id.
    data: Vec<f32>,
    /// Pre-computed norms (zero ⇒ the row is absent from every search,
    /// mirroring [`crate::FlatIndex`]'s cosine behavior).
    norms: Vec<f32>,
    /// Rows with a non-zero norm — the users this snapshot can serve as
    /// neighbors.
    covered: usize,
}

impl FrozenUserIndex {
    /// Build from `(user id, vector)` rows over a population of `n`
    /// users. Users without a row keep a zero vector and are invisible
    /// to search (undefined cosine), exactly like zero slots in the
    /// mutable index. Later duplicates overwrite earlier ones.
    ///
    /// # Panics
    /// If a row's id is `≥ n` or its vector is not `dim`-dimensional —
    /// the builder is fed from decoded engine exports that were already
    /// validated.
    pub fn from_rows(
        n: usize,
        dim: usize,
        rows: impl IntoIterator<Item = (u32, Vec<f32>)>,
    ) -> Self {
        assert!(dim > 0, "dimension must be positive");
        let mut data = vec![0.0f32; n * dim];
        for (id, v) in rows {
            assert!((id as usize) < n, "row id {id} outside population of {n}");
            assert_eq!(v.len(), dim, "vector dimension mismatch for user {id}");
            data[id as usize * dim..(id as usize + 1) * dim].copy_from_slice(&v);
        }
        Self::from_slab(n, dim, data)
    }

    fn from_slab(n: usize, dim: usize, data: Vec<f32>) -> Self {
        debug_assert_eq!(data.len(), n * dim);
        let norms: Vec<f32> = data.chunks_exact(dim).map(sccf_tensor::mat::norm).collect();
        let covered = norms.iter().filter(|&&x| x > f32::EPSILON).count();
        Self {
            dim,
            data,
            norms,
            covered,
        }
    }

    /// Rebuild with a subset of rows overwritten — the *delta* path of
    /// a global-tier refresh. Unchanged rows keep their slab bytes and
    /// pre-computed norms verbatim; overwritten rows get a fresh norm
    /// from the same per-row function [`FrozenUserIndex::from_rows`]
    /// uses, so the result is **bit-identical** to a full `from_rows`
    /// over the merged row set. Cost is one slab memcpy plus O(dirty ×
    /// dim) norm work — no per-row recompute over the clean population.
    ///
    /// # Panics
    /// Same contract as [`FrozenUserIndex::from_rows`]: ids must be
    /// `< len()` and vectors `dim()`-dimensional.
    pub fn with_rows(&self, rows: impl IntoIterator<Item = (u32, Vec<f32>)>) -> Self {
        let n = self.len();
        let mut data = self.data.clone();
        let mut norms = self.norms.clone();
        let mut covered = self.covered;
        for (id, v) in rows {
            assert!((id as usize) < n, "row id {id} outside population of {n}");
            assert_eq!(v.len(), self.dim, "vector dimension mismatch for user {id}");
            let i = id as usize;
            let was = norms[i] > f32::EPSILON;
            data[i * self.dim..(i + 1) * self.dim].copy_from_slice(&v);
            norms[i] = sccf_tensor::mat::norm(&v);
            let now = norms[i] > f32::EPSILON;
            match (was, now) {
                (false, true) => covered += 1,
                (true, false) => covered -= 1,
                _ => {}
            }
        }
        Self {
            dim: self.dim,
            data,
            norms,
            covered,
        }
    }

    /// Population size (rows, covered or not).
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Users with a usable (non-zero) vector.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// The stored vector for `id` (all-zero when the user is uncovered).
    pub fn vector(&self, id: u32) -> &[f32] {
        let start = id as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Append the top-`k` users by cosine similarity to `query`,
    /// skipping every id for which `skip` returns true (the caller's
    /// fresh tier owns those users — its vectors win). The scan, the
    /// float arithmetic and the tie-breaks are identical to
    /// [`crate::FlatIndex::search`] under [`crate::Metric::Cosine`], so
    /// with an all-false `skip` the two agree bit-for-bit.
    ///
    /// Appends at most `k` entries, sorted by descending score (ties:
    /// ascending id); the caller merges tiers by re-sorting the
    /// combined buffer with the same [`Scored`] ordering.
    pub fn search_append(
        &self,
        query: &[f32],
        k: usize,
        skip: &dyn Fn(u32) -> bool,
        out: &mut Vec<Scored>,
    ) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let qn = sccf_tensor::mat::norm(query);
        if qn <= f32::EPSILON {
            return;
        }
        let mut tk = TopK::new(k);
        for (id, row) in self.data.chunks_exact(self.dim).enumerate() {
            let n = self.norms[id];
            if n <= f32::EPSILON || skip(id as u32) {
                continue;
            }
            tk.push(id as u32, sccf_tensor::mat::dot(query, row) / (qn * n));
        }
        out.extend(tk.into_sorted_vec());
    }

    /// One-shot form of [`FrozenUserIndex::search_append`].
    pub fn search(&self, query: &[f32], k: usize, skip: &dyn Fn(u32) -> bool) -> Vec<Scored> {
        let mut out = Vec::with_capacity(k);
        self.search_append(query, k, skip, &mut out);
        out
    }

    /// Exact rerank of an ANN candidate set: score each id in
    /// `candidates` against the **exact** stored f32 row with the same
    /// float expression as [`FrozenUserIndex::search_append`]
    /// (`dot(query,row)/(qn·n)`, same [`TopK`] fold), append the top
    /// `k`. Because the `Scored` ordering is total, whenever
    /// `candidates` contains the true top-`k` the appended result is
    /// **bit-identical** to the flat scan — candidate order, duplicates
    /// from the skip predicate having already been applied upstream,
    /// none of it matters. Zero-norm rows are skipped exactly as the
    /// flat scan skips them. `candidates` ids must be unique (the ANN
    /// visited-set guarantees this upstream).
    pub fn rerank_append(
        &self,
        query: &[f32],
        k: usize,
        candidates: &[u32],
        out: &mut Vec<Scored>,
    ) {
        let mut tk = TopK::new(k);
        self.rerank_with(query, k, candidates, &mut tk, out);
    }

    /// Scratch-buffer form of [`FrozenUserIndex::rerank_append`]: `tk`
    /// is reset to bound `k` and reused, so steady-state reranks
    /// allocate nothing.
    pub fn rerank_with(
        &self,
        query: &[f32],
        k: usize,
        candidates: &[u32],
        tk: &mut TopK,
        out: &mut Vec<Scored>,
    ) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        tk.reset(k);
        let qn = sccf_tensor::mat::norm(query);
        if qn <= f32::EPSILON {
            return;
        }
        for &id in candidates {
            let n = self.norms[id as usize];
            if n <= f32::EPSILON {
                continue;
            }
            tk.push(id, sccf_tensor::mat::dot(query, self.vector(id)) / (qn * n));
        }
        tk.drain_sorted_append(out);
    }

    /// The raw row-major vector slab (population × dim) — the exact f32
    /// source the ANN tier structure is built from and reranked
    /// against.
    pub fn slab(&self) -> &[f32] {
        &self.data
    }

    /// Per-row Euclidean norms (zero for uncovered users).
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// Serialize: magic, dim (u32), row count (u64), then the slab as
    /// f32 bit patterns — all little-endian. Norms and the covered
    /// count are derived and recomputed at decode.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.data.len() * 4);
        out.extend_from_slice(FROZEN_MAGIC);
        put_u32(&mut out, self.dim as u32);
        put_u64(&mut out, self.len() as u64);
        put_f32s(&mut out, &self.data);
        out
    }

    /// Decode an encoding produced by [`FrozenUserIndex::encode`].
    /// Length arithmetic is `checked_mul`-guarded: a corrupt header can
    /// surface [`FrozenDecodeError::Truncated`], never an overflow
    /// panic or a bogus huge allocation.
    pub fn decode(bytes: &[u8]) -> Result<Self, FrozenDecodeError> {
        let mut r = Reader::new(bytes);
        r.magic(FROZEN_MAGIC)?;
        let dim = r.u32()? as usize;
        let n = r.len_u64()?;
        if dim == 0 {
            return Err(FrozenDecodeError::ZeroDim);
        }
        let data = r.f32s(n.checked_mul(dim).ok_or(FrozenDecodeError::Truncated)?)?;
        r.finish()?;
        Ok(Self::from_slab(n, dim, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::metric::Metric;

    fn rows() -> Vec<(u32, Vec<f32>)> {
        vec![
            (0, vec![1.0, 0.0, 0.2]),
            (1, vec![0.1, 0.9, 0.0]),
            (2, vec![0.5, 0.5, 0.5]),
            (3, vec![-1.0, 0.3, 0.0]),
        ]
    }

    #[test]
    fn rerank_of_candidate_superset_matches_scan_bitwise() {
        let frozen = FrozenUserIndex::from_rows(4, 3, rows());
        let everyone: Vec<u32> = (0..4).collect();
        let shuffled: Vec<u32> = vec![2, 0, 3, 1];
        for query in [[0.7f32, 0.1, 0.4], [0.0, 1.0, 0.0], [-0.3, 0.2, 0.9]] {
            let scan = frozen.search(&query, 3, &|_| false);
            for cands in [&everyone, &shuffled] {
                let mut reranked = Vec::new();
                frozen.rerank_append(&query, 3, cands, &mut reranked);
                assert_eq!(scan.len(), reranked.len());
                for (a, b) in scan.iter().zip(&reranked) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn rerank_appends_after_existing_entries() {
        let frozen = FrozenUserIndex::from_rows(4, 3, rows());
        let sentinel = Scored { score: 9.0, id: 99 };
        let mut out = vec![sentinel];
        frozen.rerank_append(&[0.7, 0.1, 0.4], 2, &[0, 1, 2, 3], &mut out);
        assert_eq!(out[0], sentinel);
        assert_eq!(out.len(), 3);
        assert!(out[1].score >= out[2].score);
    }

    #[test]
    fn matches_flat_cosine_bitwise_without_skip() {
        let frozen = FrozenUserIndex::from_rows(4, 3, rows());
        let mut flat = FlatIndex::new(3, Metric::Cosine);
        for (_, v) in rows() {
            flat.add(&v);
        }
        for query in [[0.7f32, 0.1, 0.4], [0.0, 1.0, 0.0], [-0.3, 0.2, 0.9]] {
            let a = frozen.search(&query, 3, &|_| false);
            let b = flat.search(&query, 3, None);
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.id, y.id);
                assert_eq!(x.score.to_bits(), y.score.to_bits());
            }
        }
    }

    #[test]
    fn skip_masks_users_and_zero_rows_are_invisible() {
        // User 1 never gets a row: zero vector, undefined cosine.
        let idx = FrozenUserIndex::from_rows(3, 2, [(0, vec![1.0, 0.0]), (2, vec![0.9, 0.1])]);
        assert_eq!(idx.covered(), 2);
        let all = idx.search(&[1.0, 0.0], 3, &|_| false);
        assert_eq!(all.len(), 2);
        let skipped = idx.search(&[1.0, 0.0], 3, &|u| u == 0);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].id, 2);
        assert!(idx.search(&[0.0, 0.0], 3, &|_| false).is_empty());
    }

    #[test]
    fn with_rows_matches_full_rebuild_bitwise() {
        let base = FrozenUserIndex::from_rows(5, 3, rows());
        // Overwrite user 1, cover previously-empty user 4, zero out
        // user 3 — every covered-count transition in one delta.
        let delta: Vec<(u32, Vec<f32>)> = vec![
            (1, vec![0.4, -0.2, 0.6]),
            (4, vec![0.0, 0.0, 1.0]),
            (3, vec![0.0, 0.0, 0.0]),
        ];
        let patched = base.with_rows(delta.clone());
        let mut merged = rows();
        merged.extend(delta);
        let full = FrozenUserIndex::from_rows(5, 3, merged);
        assert_eq!(patched.covered(), full.covered());
        assert_eq!(patched.encode(), full.encode());
        for id in 0..5u32 {
            assert_eq!(
                patched.norms()[id as usize].to_bits(),
                full.norms()[id as usize].to_bits()
            );
        }
        // Empty delta is a byte-identical clone.
        assert_eq!(base.with_rows([]).encode(), base.encode());
    }

    #[test]
    fn encode_decode_roundtrips_and_rejects_corruption() {
        let idx = FrozenUserIndex::from_rows(4, 3, rows());
        let bytes = idx.encode();
        let back = FrozenUserIndex::decode(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.covered(), idx.covered());
        for id in 0..4u32 {
            assert_eq!(back.vector(id), idx.vector(id));
        }
        // Search agreement survives the round trip bit-for-bit.
        let q = [0.3f32, 0.3, 0.3];
        let a = idx.search(&q, 4, &|_| false);
        let b = back.search(&q, 4, &|_| false);
        assert_eq!(a, b);

        let err = |b: &[u8]| FrozenUserIndex::decode(b).expect_err("must not decode");
        assert_eq!(err(b"junk"), FrozenDecodeError::Truncated);
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(err(&bad_magic), FrozenDecodeError::BadMagic);
        assert_eq!(err(&bytes[..bytes.len() - 1]), FrozenDecodeError::Truncated);
        // A corrupt row count near u64::MAX must fail the checked_mul
        // guard, not overflow or try to allocate the universe.
        let mut huge = bytes.clone();
        huge[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert_eq!(err(&huge), FrozenDecodeError::Truncated);
        // A header whose row count passes the multiplication guards but
        // overflows the final header-size addition must also fail
        // cleanly (usize::MAX - 3 = ((1 << 62) - 1) * 1 * 4).
        let mut add_overflow = bytes.clone();
        add_overflow[8..12].copy_from_slice(&1u32.to_le_bytes());
        add_overflow[12..20].copy_from_slice(&((1u64 << 62) - 1).to_le_bytes());
        assert_eq!(err(&add_overflow), FrozenDecodeError::Truncated);
        let mut zero_dim = bytes;
        zero_dim[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert_eq!(err(&zero_dim), FrozenDecodeError::ZeroDim);
    }
}
