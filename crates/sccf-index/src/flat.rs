//! Exact (brute-force) cosine index over dense user vectors — the one
//! Eq. 11 search structure (`cos(m_u, m_v)`).
//!
//! Contiguous `n × d` storage plus pre-computed norms, linear scan with
//! a bounded top-k heap — `O(n·d)` per query but with perfect recall
//! and excellent cache behavior; (paper §IV-D) already fast enough to
//! beat UserKNN's sparse set intersections by an order of magnitude
//! because user vectors are low-dimensional. Both tiers of the two-tier
//! neighborhood are a [`FlatIndex`]:
//!
//! * **The fresh local tier.** A shard's owned users, one row rewritten
//!   per event ([`FlatIndex::add`], [`FlatIndex::update`],
//!   [`FlatIndex::swap_remove`]), searched with the querying user's own
//!   row excluded ([`FlatIndex::search`]).
//! * **The frozen global tier.** Built once from a complete set of rows
//!   ([`FlatIndex::from_rows`], or [`FlatIndex::with_rows`] splicing a
//!   delta into the previous one), then shared behind an `Arc` and never
//!   mutated — freshness comes from swapping the whole index. It is
//!   searched with a `skip` predicate masking the users the local tier
//!   already covers ([`FlatIndex::search_append`]), reranks an ANN
//!   candidate set ([`FlatIndex::rerank_with`]) and round-trips the
//!   `SCCFFZ01` bytes ([`FlatIndex::encode`] / [`FlatIndex::decode`]).
//!
//! Both searches run one scan body, generic over the skip predicate, so
//! they share floats and tie-breaks by construction. A row whose norm
//! is zero (a user without a vector yet) is invisible to every search:
//! its cosine is undefined.
//!
//! ```
//! use sccf_index::FlatIndex;
//!
//! // Three users; user 1 has no vector yet (all-zero ⇒ invisible).
//! let idx = FlatIndex::from_rows(3, 2, [(0, vec![1.0, 0.0]), (2, vec![0.6, 0.8])]);
//! assert_eq!((idx.len(), idx.covered()), (3, 2));
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
//! let restored = FlatIndex::decode(&idx.encode()).unwrap();
//! assert_eq!(restored.vector(2), idx.vector(2));
//! ```

use sccf_tensor::mat::{dot, norm};
use sccf_util::codec::{put_f32s, put_u32, put_u64, DecodeError, Reader};
use sccf_util::topk::{Scored, TopK};

/// Why an `SCCFFZ01` encoding could not be decoded.
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

/// A row with this norm can be a neighbor; below it the cosine is
/// undefined and the row is skipped.
fn usable(norm: f32) -> bool {
    norm > f32::EPSILON
}

/// Exact cosine index with stable ids (row order). See the
/// [module docs](self) for the two roles it plays.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    /// Row-major `n × dim` slab.
    data: Vec<f32>,
    /// Pre-computed norms (zero ⇒ the row is absent from every search).
    norms: Vec<f32>,
    /// Rows with a usable norm — the users this index can serve as
    /// neighbors.
    covered: usize,
}

impl FlatIndex {
    /// An empty index of `dim`-dimensional rows.
    pub fn new(dim: usize) -> Self {
        Self::from_slab(dim, Vec::new())
    }

    /// Build from `(row id, vector)` rows over `n` rows. Rows without
    /// an entry keep a zero vector and are invisible to search,
    /// exactly like a zero row written by [`FlatIndex::update`]. Later
    /// duplicates overwrite earlier ones.
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
        let mut data = vec![0.0f32; n * dim];
        for (id, v) in rows {
            assert!((id as usize) < n, "row id {id} outside population of {n}");
            assert_eq!(v.len(), dim, "vector dimension mismatch for user {id}");
            data[id as usize * dim..(id as usize + 1) * dim].copy_from_slice(&v);
        }
        Self::from_slab(dim, data)
    }

    fn from_slab(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        debug_assert!(data.len().is_multiple_of(dim));
        let norms: Vec<f32> = data.chunks_exact(dim).map(norm).collect();
        let covered = norms.iter().filter(|&&n| usable(n)).count();
        Self {
            dim,
            data,
            norms,
            covered,
        }
    }

    /// A copy with a subset of rows overwritten — the *delta* path of a
    /// global-tier refresh. Unchanged rows keep their slab bytes and
    /// pre-computed norms verbatim; overwritten rows get a fresh norm
    /// from the same per-row function [`FlatIndex::from_rows`] uses, so
    /// the result is **bit-identical** to a full `from_rows` over the
    /// merged row set. Cost is one slab memcpy plus O(dirty × dim) norm
    /// work — no per-row recompute over the clean population.
    ///
    /// # Panics
    /// Same contract as [`FlatIndex::from_rows`]: ids must be `< len()`
    /// and vectors `dim()`-dimensional.
    pub fn with_rows(&self, rows: impl IntoIterator<Item = (u32, Vec<f32>)>) -> Self {
        let n = self.len();
        let mut next = self.clone();
        for (id, v) in rows {
            assert!((id as usize) < n, "row id {id} outside population of {n}");
            assert_eq!(v.len(), self.dim, "vector dimension mismatch for user {id}");
            next.update(id, &v);
        }
        next
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows, covered or not.
    pub fn len(&self) -> usize {
        self.norms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Rows with a usable (non-zero) vector.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Append a vector; its id is `len()` before the call.
    pub fn add(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let id = self.len() as u32;
        self.data.extend_from_slice(v);
        let n = norm(v);
        self.covered += usize::from(usable(n));
        self.norms.push(n);
        id
    }

    /// Overwrite the vector for `id` (real-time user updates).
    pub fn update(&mut self, id: u32, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let i = id as usize;
        self.data[i * self.dim..(i + 1) * self.dim].copy_from_slice(v);
        let n = norm(v);
        self.covered = self.covered + usize::from(usable(n)) - usize::from(usable(self.norms[i]));
        self.norms[i] = n;
    }

    /// Remove the vector for `id` by moving the **last** row into its
    /// slot (O(dim); ids above `id` shift down by exactly one: the old
    /// last id becomes `id`). This is the compact-layout removal the
    /// live-resharding handoff uses — the caller owns the id↔slot map
    /// and mirrors the swap there.
    pub fn swap_remove(&mut self, id: u32) {
        assert!((id as usize) < self.len(), "swap_remove: id out of range");
        let last = self.len() - 1;
        let i = id as usize;
        self.covered -= usize::from(usable(self.norms[i]));
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.dim);
            head[i * self.dim..(i + 1) * self.dim].copy_from_slice(&tail[..self.dim]);
            self.norms[i] = self.norms[last];
        }
        self.data.truncate(last * self.dim);
        self.norms.truncate(last);
    }

    /// The stored vector for `id` (all-zero when the row is uncovered).
    pub fn vector(&self, id: u32) -> &[f32] {
        let start = id as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    /// The raw row-major vector slab (rows × dim) — the exact f32
    /// source the ANN tier structure is built from and reranked
    /// against.
    pub fn slab(&self) -> &[f32] {
        &self.data
    }

    /// Per-row Euclidean norms (zero for uncovered rows).
    pub fn norms(&self) -> &[f32] {
        &self.norms
    }

    /// `‖query‖`, or `None` for a zero query (its cosine is undefined,
    /// so it has no neighbors).
    fn query_norm(&self, query: &[f32]) -> Option<f32> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let qn = norm(query);
        usable(qn).then_some(qn)
    }

    /// The one scan: offer every usable, non-skipped row's cosine
    /// `dot(query,row)/(qn·n)` to `tk`. Generic over `skip`, so the
    /// local tier's self-exclude inlines into the loop.
    #[inline]
    fn scan(&self, query: &[f32], qn: f32, skip: impl Fn(u32) -> bool, tk: &mut TopK) {
        for (id, row) in self.data.chunks_exact(self.dim).enumerate() {
            let n = self.norms[id];
            if !usable(n) || skip(id as u32) {
                continue;
            }
            tk.push(id as u32, dot(query, row) / (qn * n));
        }
    }

    /// Exact top-k by cosine, sorted descending (ties: ascending id).
    /// `exclude` (typically the querying user's own id, since `u ∉ N_u`)
    /// is skipped.
    pub fn search(&self, query: &[f32], k: usize, exclude: Option<u32>) -> Vec<Scored> {
        let mut tk = TopK::new(k);
        if let Some(qn) = self.query_norm(query) {
            self.scan(query, qn, |id| exclude == Some(id), &mut tk);
        }
        tk.into_sorted_vec()
    }

    /// Append the top-`k` rows by cosine to `query`, skipping every id
    /// for which `skip` returns true (the caller's fresh tier owns
    /// those users — its vectors win). With an all-false `skip` this
    /// is [`FlatIndex::search`] bit for bit.
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
        let Some(qn) = self.query_norm(query) else {
            return;
        };
        let mut tk = TopK::new(k);
        self.scan(query, qn, skip, &mut tk);
        out.extend(tk.into_sorted_vec());
    }

    /// Exact rerank of an ANN candidate set: score each id in
    /// `candidates` against the **exact** stored f32 row with the scan's
    /// float expression and [`TopK`] fold, and append the top `k`
    /// (sorted descending). Because the `Scored` ordering is total,
    /// whenever `candidates` contains the true top-`k` the appended
    /// result is **bit-identical** to the scan — candidate order does
    /// not matter. Zero-norm rows are skipped exactly as the scan skips
    /// them. `candidates` ids must be unique (the ANN visited-set
    /// guarantees this upstream). `tk` is reset to bound `k` and
    /// reused, so steady-state reranks allocate nothing.
    pub fn rerank_with(
        &self,
        query: &[f32],
        k: usize,
        candidates: &[u32],
        tk: &mut TopK,
        out: &mut Vec<Scored>,
    ) {
        tk.reset(k);
        let Some(qn) = self.query_norm(query) else {
            return;
        };
        for &id in candidates {
            let n = self.norms[id as usize];
            if usable(n) {
                tk.push(id, dot(query, self.vector(id)) / (qn * n));
            }
        }
        tk.drain_sorted_append(out);
    }

    /// Serialize as `SCCFFZ01`: magic, dim (u32), row count (u64), then
    /// the slab as f32 bit patterns — all little-endian. Norms and the
    /// covered count are derived and recomputed at decode.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(20 + self.data.len() * 4);
        out.extend_from_slice(FROZEN_MAGIC);
        put_u32(&mut out, self.dim as u32);
        put_u64(&mut out, self.len() as u64);
        put_f32s(&mut out, &self.data);
        out
    }

    /// Decode an encoding produced by [`FlatIndex::encode`]. Length
    /// arithmetic is `checked_mul`-guarded: a corrupt header can surface
    /// [`FrozenDecodeError::Truncated`], never an overflow panic or a
    /// bogus huge allocation.
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
        Ok(Self::from_slab(dim, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_index() -> FlatIndex {
        let mut idx = FlatIndex::new(2);
        idx.add(&[1.0, 0.0]); // 0
        idx.add(&[0.0, 1.0]); // 1
        idx.add(&[1.0, 1.0]); // 2
        idx
    }

    fn rows() -> Vec<(u32, Vec<f32>)> {
        vec![
            (0, vec![1.0, 0.0, 0.2]),
            (1, vec![0.1, 0.9, 0.0]),
            (2, vec![0.5, 0.5, 0.5]),
            (3, vec![-1.0, 0.3, 0.0]),
        ]
    }

    fn scan(idx: &FlatIndex, query: &[f32], k: usize, skip: &dyn Fn(u32) -> bool) -> Vec<Scored> {
        let mut out = Vec::new();
        idx.search_append(query, k, skip, &mut out);
        out
    }

    #[test]
    fn exact_top1_cosine() {
        let idx = unit_index();
        let hits = idx.search(&[2.0, 1.0], 1, None);
        assert_eq!(hits[0].id, 2);
        assert!((hits[0].score - 3.0 / 10f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn exclusion_skips_self() {
        let idx = unit_index();
        let hits = idx.search(&[1.0, 1.0], 3, Some(2));
        assert!(hits.iter().all(|h| h.id != 2));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn cosine_ignores_magnitude() {
        let mut idx = FlatIndex::new(2);
        idx.add(&[10.0, 0.0]);
        idx.add(&[0.0, 0.1]);
        let hits = idx.search(&[1.0, 0.0], 2, None);
        assert_eq!(hits[0].id, 0);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_query_returns_empty() {
        let idx = FlatIndex::from_rows(1, 2, [(0, vec![1.0, 0.0])]);
        assert!(idx.search(&[0.0, 0.0], 1, None).is_empty());
        assert!(scan(&idx, &[0.0, 0.0], 1, &|_| false).is_empty());
    }

    #[test]
    fn cosine_zero_vector_never_matches() {
        let mut idx = FlatIndex::new(2);
        idx.add(&[0.0, 0.0]);
        idx.add(&[1.0, 0.0]);
        assert_eq!(idx.covered(), 1);
        let hits = idx.search(&[1.0, 0.0], 2, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 1);
    }

    #[test]
    fn update_changes_results() {
        let mut idx = unit_index();
        let before = idx.search(&[1.0, 2.0], 1, None);
        assert_eq!(before[0].id, 2);
        idx.update(1, &[1.0, 2.0]);
        let after = idx.search(&[1.0, 2.0], 1, None);
        assert_eq!(after[0].id, 1);
        assert_eq!(idx.vector(1), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut idx = FlatIndex::new(3);
        idx.add(&[1.0]);
    }

    #[test]
    fn swap_remove_moves_last_row_into_slot() {
        let mut idx = unit_index();
        idx.swap_remove(0); // last row [1,1] takes id 0
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.vector(0), &[1.0, 1.0]);
        assert_eq!(idx.vector(1), &[0.0, 1.0]);
        idx.swap_remove(1); // removing the last row shifts nothing
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.vector(0), &[1.0, 1.0]);
        idx.swap_remove(0);
        assert!(idx.is_empty());
        assert_eq!(idx.covered(), 0);
    }

    #[test]
    fn covered_tracks_every_mutation() {
        let mut idx = FlatIndex::new(2);
        idx.add(&[1.0, 0.0]);
        idx.add(&[0.0, 0.0]);
        idx.add(&[0.0, 1.0]);
        assert_eq!(idx.covered(), 2);
        idx.update(1, &[0.5, 0.5]); // uncovered → covered
        idx.update(0, &[0.0, 0.0]); // covered → uncovered
        assert_eq!(idx.covered(), 2);
        idx.swap_remove(0); // an uncovered row leaves
        assert_eq!(idx.covered(), 2);
        idx.swap_remove(0); // a covered one does
        assert_eq!(idx.covered(), 1);
        let counted = idx.norms().iter().filter(|&&n| usable(n)).count();
        assert_eq!(idx.covered(), counted);
    }

    #[test]
    fn rerank_of_candidate_superset_matches_scan_bitwise() {
        let idx = FlatIndex::from_rows(4, 3, rows());
        let everyone: Vec<u32> = (0..4).collect();
        let shuffled: Vec<u32> = vec![2, 0, 3, 1];
        let mut tk = TopK::new(0);
        for query in [[0.7f32, 0.1, 0.4], [0.0, 1.0, 0.0], [-0.3, 0.2, 0.9]] {
            let full = idx.search(&query, 3, None);
            for cands in [&everyone, &shuffled] {
                let mut reranked = Vec::new();
                idx.rerank_with(&query, 3, cands, &mut tk, &mut reranked);
                assert_eq!(full.len(), reranked.len());
                for (a, b) in full.iter().zip(&reranked) {
                    assert_eq!(a.id, b.id);
                    assert_eq!(a.score.to_bits(), b.score.to_bits());
                }
            }
        }
    }

    #[test]
    fn rerank_appends_after_existing_entries() {
        let idx = FlatIndex::from_rows(4, 3, rows());
        let sentinel = Scored { score: 9.0, id: 99 };
        let mut out = vec![sentinel];
        idx.rerank_with(
            &[0.7, 0.1, 0.4],
            2,
            &[0, 1, 2, 3],
            &mut TopK::new(0),
            &mut out,
        );
        assert_eq!(out[0], sentinel);
        assert_eq!(out.len(), 3);
        assert!(out[1].score >= out[2].score);
    }

    #[test]
    fn skip_masks_users_and_zero_rows_are_invisible() {
        // User 1 never gets a row: zero vector, undefined cosine.
        let idx = FlatIndex::from_rows(3, 2, [(0, vec![1.0, 0.0]), (2, vec![0.9, 0.1])]);
        assert_eq!(idx.covered(), 2);
        assert_eq!(scan(&idx, &[1.0, 0.0], 3, &|_| false).len(), 2);
        let skipped = scan(&idx, &[1.0, 0.0], 3, &|u| u == 0);
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].id, 2);
    }

    #[test]
    fn with_rows_matches_full_rebuild_bitwise() {
        let base = FlatIndex::from_rows(5, 3, rows());
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
        let full = FlatIndex::from_rows(5, 3, merged);
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
        let idx = FlatIndex::from_rows(4, 3, rows());
        let bytes = idx.encode();
        let back = FlatIndex::decode(&bytes).unwrap();
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.covered(), idx.covered());
        for id in 0..4u32 {
            assert_eq!(back.vector(id), idx.vector(id));
        }
        // Search agreement survives the round trip bit-for-bit.
        let q = [0.3f32, 0.3, 0.3];
        assert_eq!(
            scan(&idx, &q, 4, &|_| false),
            scan(&back, &q, 4, &|_| false)
        );

        let err = |b: &[u8]| FlatIndex::decode(b).expect_err("must not decode");
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
