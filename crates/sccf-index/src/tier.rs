//! Frozen-tier acceleration: a sublinear HNSW search layered over the
//! frozen tier's [`FlatIndex`], behind a config enum so the flat scan
//! stays the provable reference.
//!
//! The serving pipeline is **candidate → exact rerank → delta-wins
//! merge**: the graph over-fetches a candidate set, the candidates are
//! reranked against the *exact* frozen f32 vectors with the same float
//! expression and [`TopK`] fold as the flat scan, and only then does
//! the caller merge delta-tier results on top. Because the `Scored`
//! ordering is total, whenever the candidate set contains the true
//! top-β the reranked output is bit-identical to the flat scan — so an
//! exhaustive beam ([`FrozenTierMode::Hnsw`] with `ef ≥ covered`)
//! *reproduces* the reference, and anything less exhaustive degrades
//! measurably (recall@β in `BENCH_quality.json`), never silently.
//!
//! Build cost rides the refresh epoch (off the hot path); searches
//! run entirely out of a [`TierScratch`], preserving the serving
//! zero-allocation invariant.

use sccf_util::codec::{put_u32s, put_u64, Reader};
use sccf_util::topk::{Scored, TopK};

use crate::flat::FlatIndex;
use crate::hnsw::{HnswConfig, HnswIndex, HnswScratch};
use crate::metric::Metric;
use crate::CodecError;

/// How the frozen global tier is searched.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrozenTierMode {
    /// Exact O(population) cosine scan — the provable reference.
    #[default]
    Flat,
    /// HNSW graph over the covered vectors; `ef` is the search beam.
    /// `ef ≥ covered` makes the search exhaustive (bit-identical to
    /// `Flat` after exact rerank).
    Hnsw { ef: usize },
}

impl FrozenTierMode {
    /// Stable one-word label for stats/JSON surfaces.
    pub fn label(&self) -> &'static str {
        match self {
            FrozenTierMode::Flat => "flat",
            FrozenTierMode::Hnsw { .. } => "hnsw",
        }
    }
}

/// Over-fetch multiplier for candidate generation: the graph returns
/// `HNSW_OVERFETCH × β` candidates for the exact reranker. HNSW
/// scores candidates with the exact cosine (unit rows × unit query),
/// so the margin only has to absorb float-rounding ties at the β
/// boundary and beam misses — 2× is plenty, and because the beam
/// width is forced up to the fetch size, halving the fetch halves the
/// dominant search cost.
pub const HNSW_OVERFETCH: usize = 2;

/// Reusable search state for the accelerated tier. One of these lives
/// in the serving `QueryScratch`; every buffer is cleared and refilled
/// per search, capacity retained — nothing population- or
/// catalog-sized is allocated at steady state.
#[derive(Debug)]
pub struct TierScratch {
    /// HNSW beam state (visited stamps, frontier, bounded best).
    pub hnsw: HnswScratch,
    /// Raw accelerated results (accel-row id space).
    ann: Vec<Scored>,
    /// Candidate user ids handed to the exact reranker.
    cand_ids: Vec<u32>,
    /// Bounded top-k of the exact rerank.
    rerank: TopK,
    /// Normalized query buffer (cosine semantics).
    qbuf: Vec<f32>,
}

impl TierScratch {
    pub fn new() -> Self {
        Self {
            hnsw: HnswScratch::new(),
            ann: Vec::new(),
            cand_ids: Vec::new(),
            rerank: TopK::new(0),
            qbuf: Vec::new(),
        }
    }
}

impl Default for TierScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The accelerated structure for one frozen snapshot (absent in
/// [`FrozenTierMode::Flat`]): an HNSW graph over the covered users'
/// unit-length vectors. Immutable after build; `Arc`-shared with the
/// snapshot it accelerates.
pub struct FrozenTierAccel {
    ef: usize,
    /// Accel row → user id (covered users, ascending).
    ids: Vec<u32>,
    index: HnswIndex,
}

impl FrozenTierAccel {
    /// Build the structure `mode` asks for over the frozen vectors.
    /// Returns `None` for [`FrozenTierMode::Flat`] (no structure — the
    /// scan is the search) and for an empty covered set. Runs at
    /// refresh time, off the serving hot path.
    pub fn build(mode: FrozenTierMode, frozen: &FlatIndex, seed: u64) -> Option<Self> {
        let FrozenTierMode::Hnsw { ef } = mode else {
            return None;
        };
        let dim = frozen.dim();
        let covered: Vec<u32> = (0..frozen.len() as u32)
            .filter(|&id| frozen.norms()[id as usize] > f32::EPSILON)
            .collect();
        if covered.is_empty() {
            return None;
        }
        // Rows are stored unit-length and searched with InnerProduct:
        // one dot per visited node instead of dot + two norms under
        // Cosine (3× the flops), with the identical ranking — cosine
        // of the originals IS the inner product of the normalized
        // copies. The exact reranker restores bitwise flat-scan scores
        // afterwards, so this is invisible downstream.
        // m = 8 (layer-0 degree 16): the serving search always
        // over-fetches HNSW_OVERFETCH×β candidates with ef ≥ that
        // fetch, so the wide beam — not graph degree — carries recall;
        // the thinner graph halves the distance evaluations per beam
        // expansion.
        let mut index = HnswIndex::new(
            dim,
            Metric::InnerProduct,
            HnswConfig {
                m: 8,
                ef_search: ef.max(1),
                seed,
                ..HnswConfig::default()
            },
        );
        let mut unit = vec![0.0f32; dim];
        for &id in &covered {
            let nrm = frozen.norms()[id as usize];
            for (u, &v) in unit.iter_mut().zip(frozen.vector(id)) {
                *u = v / nrm;
            }
            index.add(&unit);
        }
        Some(Self {
            ef: ef.max(1),
            ids: covered,
            index,
        })
    }

    /// The mode this structure implements (with its build parameters).
    pub fn mode(&self) -> FrozenTierMode {
        FrozenTierMode::Hnsw { ef: self.ef }
    }

    /// Resident bytes of the acceleration structure (row ids, unit
    /// vectors, graph — the memory the stats surface reports).
    pub fn bytes(&self) -> usize {
        self.ids.len() * 4 + self.index.memory_bytes()
    }

    /// Fill `scratch.cand_ids` with up to `fetch` candidate **user
    /// ids** for the exact reranker, skipping ids the predicate owns.
    fn candidates(
        &self,
        query: &[f32],
        fetch: usize,
        skip: &dyn Fn(u32) -> bool,
        scratch: &mut TierScratch,
    ) {
        scratch.cand_ids.clear();
        // Rows are unit-length (see `build`); normalizing the query
        // once makes every InnerProduct visit a cosine.
        let qn = sccf_tensor::mat::norm(query);
        if qn <= f32::EPSILON {
            return;
        }
        scratch.qbuf.clear();
        scratch.qbuf.extend(query.iter().map(|&v| v / qn));
        let row_skip = |r: u32| skip(self.ids[r as usize]);
        self.index.search_filtered_into(
            &scratch.qbuf,
            fetch,
            self.ef.max(fetch),
            Some(&row_skip),
            &mut scratch.hnsw,
            &mut scratch.ann,
        );
        scratch
            .cand_ids
            .extend(scratch.ann.iter().map(|s| self.ids[s.id as usize]));
    }

    /// Candidate → exact-rerank search: appends the top `beta`
    /// non-skipped users by exact cosine (identical float expression
    /// and tie-breaks to [`FlatIndex::search_append`]), sorted
    /// descending. Over-fetches [`HNSW_OVERFETCH`]`×β` candidates from
    /// the graph first. Zero allocations at steady state.
    pub fn search_append(
        &self,
        frozen: &FlatIndex,
        query: &[f32],
        beta: usize,
        skip: &dyn Fn(u32) -> bool,
        scratch: &mut TierScratch,
        out: &mut Vec<Scored>,
    ) {
        if beta == 0 {
            return;
        }
        let fetch = beta.saturating_mul(HNSW_OVERFETCH);
        self.candidates(query, fetch, skip, scratch);
        // take() sidesteps the cand_ids/rerank double borrow; the
        // buffer (and its capacity) is restored right after.
        let cand_ids = std::mem::take(&mut scratch.cand_ids);
        frozen.rerank_with(query, beta, &cand_ids, &mut scratch.rerank, out);
        scratch.cand_ids = cand_ids;
    }

    /// Serialize (mode tag + structure), appending to `out`; returns
    /// the byte count for length-prefixing.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(ACCEL_MAGIC);
        out.push(HNSW_TAG);
        put_u64(out, self.ef as u64);
        put_u64(out, self.ids.len() as u64);
        put_u32s(out, &self.ids);
        self.index.encode_into(out);
        out.len() - start
    }

    /// Decode an [`FrozenTierAccel::encode_into`] section that sits
    /// beside `frozen`. Any mode tag but the HNSW one (tag 2 named the
    /// retired IVF-PQ tier) is a typed error, and so is a structure
    /// that does not fit `frozen` — [`Self::search_append`] indexes
    /// the frozen vectors by these ids unchecked, so the rows must
    /// name distinct users of that index (strictly ascending, all in
    /// range, one per graph row) in that index's dimension.
    pub fn decode_from(r: &mut Reader<'_>, frozen: &FlatIndex) -> Result<Self, CodecError> {
        r.magic(ACCEL_MAGIC)?;
        if r.u8()? != HNSW_TAG {
            return Err(CodecError::Invalid("accel mode tag"));
        }
        let ef = r.len_u64()?.max(1);
        let n = r.len_u64()?;
        let ids = r.u32s(n)?;
        let index = HnswIndex::decode_from(r)?;
        if index.len() != n {
            return Err(CodecError::Invalid("hnsw rows vs ids"));
        }
        if index.dim() != frozen.dim() {
            return Err(CodecError::Invalid("accel dim vs frozen index"));
        }
        if ids.windows(2).any(|w| w[0] >= w[1])
            || ids.last().is_some_and(|&id| id as usize >= frozen.len())
        {
            return Err(CodecError::Invalid("accel ids vs frozen index"));
        }
        Ok(Self { ef, ids, index })
    }
}

const ACCEL_MAGIC: &[u8; 8] = b"SCCFAC01";
/// The one mode tag of an `SCCFAC01` section.
const HNSW_TAG: u8 = 1;

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn frozen_population(n: usize, dim: usize, seed: u64) -> FlatIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(u32, Vec<f32>)> = (0..n as u32)
            .map(|id| (id, (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()))
            .collect();
        FlatIndex::from_rows(n, dim, rows)
    }

    fn queries(count: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect()
    }

    fn assert_bitwise_eq(a: &[Scored], b: &[Scored]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.score.to_bits(), y.score.to_bits());
        }
    }

    #[test]
    fn flat_mode_builds_nothing() {
        let frozen = frozen_population(50, 8, 1);
        assert!(FrozenTierAccel::build(FrozenTierMode::Flat, &frozen, 7).is_none());
    }

    #[test]
    fn exhaustive_hnsw_matches_flat_scan_bitwise() {
        let frozen = frozen_population(300, 8, 2);
        let accel = FrozenTierAccel::build(FrozenTierMode::Hnsw { ef: 300 }, &frozen, 7).unwrap();
        let mut scratch = TierScratch::new();
        for q in queries(10, 8, 3) {
            for beta in [1usize, 10, 40] {
                let flat = frozen.search(&q, beta, None);
                let mut fast = Vec::new();
                accel.search_append(&frozen, &q, beta, &|_| false, &mut scratch, &mut fast);
                assert_bitwise_eq(&flat, &fast);
            }
        }
    }

    #[test]
    fn skip_predicate_is_respected() {
        let frozen = frozen_population(200, 8, 6);
        let accel = FrozenTierAccel::build(FrozenTierMode::Hnsw { ef: 200 }, &frozen, 7).unwrap();
        let mut scratch = TierScratch::new();
        for q in queries(5, 8, 8) {
            let mut out = Vec::new();
            accel.search_append(&frozen, &q, 20, &|id| id % 3 == 0, &mut scratch, &mut out);
            assert!(!out.is_empty());
            assert!(out.iter().all(|s| s.id % 3 != 0));
            // and equals the flat scan under the same skip (the beam
            // is exhaustive here)
            let mut flat = Vec::new();
            frozen.search_append(&q, 20, &|id| id % 3 == 0, &mut flat);
            assert_bitwise_eq(&flat, &out);
        }
    }

    #[test]
    fn encode_decode_roundtrip_is_byte_identical_and_search_equal() {
        let frozen = frozen_population(150, 8, 11);
        let accel = FrozenTierAccel::build(FrozenTierMode::Hnsw { ef: 64 }, &frozen, 13).unwrap();
        let mut bytes = Vec::new();
        let n = accel.encode_into(&mut bytes);
        assert_eq!(n, bytes.len());
        let mut r = Reader::new(&bytes);
        let back = FrozenTierAccel::decode_from(&mut r, &frozen).expect("roundtrip");
        assert_eq!(r.remaining(), 0);
        assert_eq!(back.mode(), accel.mode());
        // re-encode must be byte-identical
        let mut bytes2 = Vec::new();
        back.encode_into(&mut bytes2);
        assert_eq!(bytes, bytes2);
        // and search equal
        let mut s1 = TierScratch::new();
        let mut s2 = TierScratch::new();
        for q in queries(5, 8, 12) {
            let mut a = Vec::new();
            let mut b = Vec::new();
            accel.search_append(&frozen, &q, 10, &|_| false, &mut s1, &mut a);
            back.search_append(&frozen, &q, 10, &|_| false, &mut s2, &mut b);
            assert_bitwise_eq(&a, &b);
        }
    }

    #[test]
    fn decode_rejects_a_retired_mode_tag_and_a_structure_that_does_not_fit() {
        let frozen = frozen_population(40, 8, 17);
        let accel = FrozenTierAccel::build(FrozenTierMode::Hnsw { ef: 8 }, &frozen, 13).unwrap();
        let mut bytes = Vec::new();
        accel.encode_into(&mut bytes);
        let decode = |bytes: &[u8], frozen: &FlatIndex| {
            FrozenTierAccel::decode_from(&mut Reader::new(bytes), frozen).err()
        };
        assert_eq!(decode(&bytes, &frozen), None);
        // tag 2 named the IVF-PQ tier
        let mut retired = bytes.clone();
        retired[ACCEL_MAGIC.len()] = 2;
        assert_eq!(
            decode(&retired, &frozen),
            Some(CodecError::Invalid("accel mode tag"))
        );
        // fewer users than the ids name, and another dimension
        assert_eq!(
            decode(&bytes, &frozen_population(39, 8, 17)),
            Some(CodecError::Invalid("accel ids vs frozen index"))
        );
        assert_eq!(
            decode(&bytes, &frozen_population(40, 4, 17)),
            Some(CodecError::Invalid("accel dim vs frozen index"))
        );
        // a repeated id: the first id sits after magic, tag, ef, count
        let first_id = ACCEL_MAGIC.len() + 1 + 8 + 8;
        let mut repeated = bytes.clone();
        repeated.copy_within(first_id..first_id + 4, first_id + 4);
        assert_eq!(
            decode(&repeated, &frozen),
            Some(CodecError::Invalid("accel ids vs frozen index"))
        );
    }

    #[test]
    fn seeded_rebuild_is_byte_identical() {
        let frozen = frozen_population(100, 8, 14);
        let mode = FrozenTierMode::Hnsw { ef: 16 };
        let a = FrozenTierAccel::build(mode, &frozen, 99).unwrap();
        let b = FrozenTierAccel::build(mode, &frozen, 99).unwrap();
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        a.encode_into(&mut ba);
        b.encode_into(&mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn steady_state_search_does_not_allocate_in_scratch() {
        let frozen = frozen_population(400, 8, 15);
        let accel = FrozenTierAccel::build(FrozenTierMode::Hnsw { ef: 32 }, &frozen, 7).unwrap();
        let mut scratch = TierScratch::new();
        let qs = queries(8, 8, 16);
        let mut out = Vec::new();
        // warm up: buffers grow to their steady-state capacity
        for q in &qs {
            out.clear();
            accel.search_append(&frozen, q, 25, &|_| false, &mut scratch, &mut out);
        }
        let caps = |s: &TierScratch| (s.cand_ids.capacity(), s.ann.capacity(), s.qbuf.capacity());
        let warm = caps(&scratch);
        for q in &qs {
            out.clear();
            accel.search_append(&frozen, q, 25, &|_| false, &mut scratch, &mut out);
        }
        assert_eq!(
            warm,
            caps(&scratch),
            "tier scratch must reach a fixed point"
        );
    }
}
