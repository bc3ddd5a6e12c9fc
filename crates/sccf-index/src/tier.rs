//! Frozen-tier acceleration: sublinear / memory-compressed search
//! structures layered over a [`FrozenUserIndex`], behind a config enum
//! so the flat scan stays the provable reference.
//!
//! The serving pipeline is **candidate → exact rerank → delta-wins
//! merge**: the accelerated structure over-fetches a candidate set
//! (approximate or quantized scores), the candidates are reranked
//! against the *exact* frozen f32 vectors with the same float
//! expression and [`TopK`] fold as the flat scan, and only then does
//! the caller merge delta-tier results on top. Because the `Scored`
//! ordering is total, whenever the candidate set contains the true
//! top-β the reranked output is bit-identical to the flat scan — so
//! exhaustive parameters ([`FrozenTierMode::Hnsw`] with `ef ≥
//! covered`, [`FrozenTierMode::IvfPq`] with `nprobe ≥ nlist` and
//! overfetch ≥ covered) *reproduce* the reference, and anything less
//! exhaustive degrades measurably (recall@β in `BENCH_quality.json`),
//! never silently.
//!
//! Build cost rides the refresh epoch (off the hot path); searches
//! run entirely out of a [`TierScratch`], preserving the serving
//! zero-allocation invariant.

use sccf_util::codec::{put_f32s, put_u32, put_u32s, put_u64, Reader};
use sccf_util::topk::{Scored, TopK};

use crate::frozen::FrozenUserIndex;
use crate::hnsw::{HnswConfig, HnswIndex, HnswScratch};
use crate::kmeans::{kmeans_seeded, KMeans};
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
    /// IVF coarse cells + product-quantized ADC scan; candidates are
    /// reranked exactly. `m` is bytes per stored vector (clamped to
    /// the largest divisor of `dim`), `nprobe ≥ nlist` probes
    /// everything.
    IvfPq {
        nlist: usize,
        nprobe: usize,
        m: usize,
    },
}

impl FrozenTierMode {
    /// Stable one-word label for stats/JSON surfaces.
    pub fn label(&self) -> &'static str {
        match self {
            FrozenTierMode::Flat => "flat",
            FrozenTierMode::Hnsw { .. } => "hnsw",
            FrozenTierMode::IvfPq { .. } => "ivf_pq",
        }
    }
}

/// Over-fetch multiplier for **quantized** candidate generation: the
/// structure returns `OVERFETCH × β` candidates for the exact
/// reranker. PQ's ADC scores are lossy approximations, so the margin
/// is what absorbs quantization-induced reorderings near the β
/// boundary. Measured on the bench populations this keeps recall@β
/// within a point of the raw candidate recall while the rerank cost
/// stays negligible next to the scan it replaces.
pub const OVERFETCH: usize = 4;

/// Over-fetch multiplier for **HNSW** candidate generation. HNSW
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
    /// Bounded top-k reused by ADC selection and the exact rerank.
    select: TopK,
    rerank: TopK,
    /// Normalized query buffer (cosine semantics).
    qbuf: Vec<f32>,
    /// PQ asymmetric-distance lookup table (`m × kk`).
    lut: Vec<f32>,
    /// Probed coarse cells and their ranking buffer.
    cells: Vec<u32>,
    cell_rank: Vec<(f32, u32)>,
    /// Gathered accel-row list + fused-kernel scores.
    adc_rows: Vec<u32>,
    adc_scores: Vec<f32>,
}

impl TierScratch {
    pub fn new() -> Self {
        Self {
            hnsw: HnswScratch::new(),
            ann: Vec::new(),
            cand_ids: Vec::new(),
            select: TopK::new(0),
            rerank: TopK::new(0),
            qbuf: Vec::new(),
            lut: Vec::new(),
            cells: Vec::new(),
            cell_rank: Vec::new(),
            adc_rows: Vec::new(),
            adc_scores: Vec::new(),
        }
    }
}

impl Default for TierScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The accelerated structure for one frozen snapshot (absent in
/// [`FrozenTierMode::Flat`]). Immutable after build; `Arc`-shared with
/// the snapshot it accelerates.
pub enum FrozenTierAccel {
    Hnsw {
        ef: usize,
        /// Accel row → user id (covered users, ascending).
        ids: Vec<u32>,
        index: HnswIndex,
    },
    IvfPq(IvfPqAccel),
}

/// IVF-PQ tier: k-means coarse cells over the normalized covered
/// vectors, product-quantized codes scanned with the fused
/// table-lookup kernel ([`sccf_tensor::pq_adc_gather`]).
pub struct IvfPqAccel {
    dim: usize,
    nprobe: usize,
    /// Explicit k-means seed carried in the snapshot: rebuilding from
    /// the same frozen vectors is bit-identical.
    seed: u64,
    /// Accel row → user id (covered users, ascending).
    ids: Vec<u32>,
    /// Coarse quantizer (assignment dropped after build).
    coarse: KMeans,
    /// CSR inverted lists over accel rows.
    list_offsets: Vec<u32>,
    list_rows: Vec<u32>,
    /// PQ geometry: `m` subspaces of `dsub` dims, `kk` centroids each.
    m: usize,
    kk: usize,
    dsub: usize,
    /// `m × kk × dsub` row-major codebooks.
    codebooks: Vec<f32>,
    /// `n × m` codes.
    codes: Vec<u8>,
}

/// Largest divisor of `dim` that is ≤ `want` (≥ 1). PQ subspace counts
/// must divide the dimension; clamping deterministically beats
/// panicking mid-refresh.
fn clamp_subspaces(dim: usize, want: usize) -> usize {
    let want = want.clamp(1, dim);
    (1..=want)
        .rev()
        .find(|&m| dim.is_multiple_of(m))
        .unwrap_or(1)
}

/// Deterministic even-stride training sample: up to `cap` of `n` rows.
fn train_sample(n: usize, cap: usize) -> Vec<usize> {
    if n <= cap {
        (0..n).collect()
    } else {
        let step = n.div_ceil(cap);
        (0..n).step_by(step).collect()
    }
}

const TRAIN_CAP: usize = 16_384;

impl FrozenTierAccel {
    /// Build the structure `mode` asks for over the frozen vectors.
    /// Returns `None` for [`FrozenTierMode::Flat`] (no structure — the
    /// scan is the search) and for an empty covered set. Runs at
    /// refresh time, off the serving hot path.
    pub fn build(mode: FrozenTierMode, frozen: &FrozenUserIndex, seed: u64) -> Option<Self> {
        let dim = frozen.dim();
        let covered: Vec<u32> = (0..frozen.len() as u32)
            .filter(|&id| frozen.norms()[id as usize] > f32::EPSILON)
            .collect();
        if covered.is_empty() {
            return None;
        }
        match mode {
            FrozenTierMode::Flat => None,
            FrozenTierMode::Hnsw { ef } => {
                // Rows are stored unit-length and searched with
                // InnerProduct: one dot per visited node instead of
                // dot + two norms under Cosine (3× the flops), with
                // the identical ranking — cosine of the originals IS
                // the inner product of the normalized copies. The
                // exact reranker restores bitwise flat-scan scores
                // afterwards, so this is invisible downstream.
                // m = 8 (layer-0 degree 16): the serving search always
                // over-fetches OVERFETCH×β candidates with ef ≥ that
                // fetch, so the wide beam — not graph degree — carries
                // recall; the thinner graph halves the distance
                // evaluations per beam expansion.
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
                Some(FrozenTierAccel::Hnsw {
                    ef: ef.max(1),
                    ids: covered,
                    index,
                })
            }
            FrozenTierMode::IvfPq { nlist, nprobe, m } => Some(FrozenTierAccel::IvfPq(
                IvfPqAccel::build(frozen, &covered, nlist, nprobe, m, seed),
            )),
        }
    }

    /// The mode this structure implements (with its build parameters).
    pub fn mode(&self) -> FrozenTierMode {
        match self {
            FrozenTierAccel::Hnsw { ef, .. } => FrozenTierMode::Hnsw { ef: *ef },
            FrozenTierAccel::IvfPq(a) => FrozenTierMode::IvfPq {
                nlist: a.coarse.k,
                nprobe: a.nprobe,
                m: a.m,
            },
        }
    }

    /// Resident bytes of the acceleration structure (vectors, graph /
    /// lists, codes — the memory the stats surface reports).
    pub fn bytes(&self) -> usize {
        match self {
            FrozenTierAccel::Hnsw { ids, index, .. } => ids.len() * 4 + index.memory_bytes(),
            FrozenTierAccel::IvfPq(a) => {
                a.ids.len() * 4
                    + a.coarse.centroids.len() * 4
                    + a.list_offsets.len() * 4
                    + a.list_rows.len() * 4
                    + a.codebooks.len() * 4
                    + a.codes.len()
            }
        }
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
        match self {
            FrozenTierAccel::Hnsw { ef, ids, index } => {
                // Rows are unit-length (see `build`); normalizing the
                // query once makes every InnerProduct visit a cosine.
                let qn = sccf_tensor::mat::norm(query);
                if qn <= f32::EPSILON {
                    return;
                }
                scratch.qbuf.clear();
                scratch.qbuf.extend(query.iter().map(|&v| v / qn));
                let row_skip = |r: u32| skip(ids[r as usize]);
                index.search_filtered_into(
                    &scratch.qbuf,
                    fetch,
                    (*ef).max(fetch),
                    Some(&row_skip),
                    &mut scratch.hnsw,
                    &mut scratch.ann,
                );
                scratch
                    .cand_ids
                    .extend(scratch.ann.iter().map(|s| ids[s.id as usize]));
            }
            FrozenTierAccel::IvfPq(a) => a.candidates(query, fetch, skip, scratch),
        }
    }

    /// The candidate over-fetch factor this structure needs:
    /// [`HNSW_OVERFETCH`] for exactly-scored HNSW candidates,
    /// [`OVERFETCH`] for quantized ADC candidates.
    pub fn overfetch(&self) -> usize {
        match self {
            FrozenTierAccel::Hnsw { .. } => HNSW_OVERFETCH,
            FrozenTierAccel::IvfPq(_) => OVERFETCH,
        }
    }

    /// Candidate → exact-rerank search: appends the top `beta`
    /// non-skipped users by exact cosine (identical float expression
    /// and tie-breaks to [`FrozenUserIndex::search_append`]), sorted
    /// descending. Over-fetches [`Self::overfetch`]`×β` candidates
    /// from the accelerated structure first. Zero allocations at
    /// steady state.
    pub fn search_append(
        &self,
        frozen: &FrozenUserIndex,
        query: &[f32],
        beta: usize,
        skip: &dyn Fn(u32) -> bool,
        scratch: &mut TierScratch,
        out: &mut Vec<Scored>,
    ) {
        if beta == 0 {
            return;
        }
        let fetch = beta.saturating_mul(self.overfetch());
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
        match self {
            FrozenTierAccel::Hnsw { ef, ids, index } => {
                out.push(1u8);
                put_u64(out, *ef as u64);
                put_u64(out, ids.len() as u64);
                put_u32s(out, ids);
                index.encode_into(out);
            }
            FrozenTierAccel::IvfPq(a) => {
                out.push(2u8);
                a.encode_into(out);
            }
        }
        out.len() - start
    }

    /// Decode an [`FrozenTierAccel::encode_into`] section.
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.magic(ACCEL_MAGIC)?;
        match r.u8()? {
            1 => {
                let ef = r.len_u64()?.max(1);
                let n = r.len_u64()?;
                let ids = r.u32s(n)?;
                let index = HnswIndex::decode_from(r)?;
                if index.len() != n {
                    return Err(CodecError::Invalid("hnsw rows vs ids"));
                }
                Ok(FrozenTierAccel::Hnsw { ef, ids, index })
            }
            2 => Ok(FrozenTierAccel::IvfPq(IvfPqAccel::decode_from(r)?)),
            _ => Err(CodecError::Invalid("accel mode tag")),
        }
    }
}

const ACCEL_MAGIC: &[u8; 8] = b"SCCFAC01";

impl IvfPqAccel {
    fn build(
        frozen: &FrozenUserIndex,
        covered: &[u32],
        nlist: usize,
        nprobe: usize,
        m: usize,
        seed: u64,
    ) -> Self {
        let dim = frozen.dim();
        let n = covered.len();
        // Normalized rows: ADC then approximates cosine directly.
        let mut normed = Vec::with_capacity(n * dim);
        for &id in covered {
            let nrm = frozen.norms()[id as usize];
            normed.extend(frozen.vector(id).iter().map(|&v| v / nrm));
        }

        // Coarse cells: train on a deterministic sample, assign all.
        let sample = train_sample(n, TRAIN_CAP);
        let mut training = Vec::with_capacity(sample.len() * dim);
        for &r in &sample {
            training.extend_from_slice(&normed[r * dim..(r + 1) * dim]);
        }
        let nlist = nlist.clamp(1, n);
        let mut coarse = kmeans_seeded(&training, dim, nlist, 10, seed);
        let nlist = coarse.k;
        let mut cell_of = vec![0u32; n];
        let mut counts = vec![0u32; nlist];
        for r in 0..n {
            let c = coarse.assign(&normed[r * dim..(r + 1) * dim]);
            cell_of[r] = c;
            counts[c as usize] += 1;
        }
        coarse.assignment = Vec::new(); // training-sample assignment: dead weight
        let mut list_offsets = vec![0u32; nlist + 1];
        for c in 0..nlist {
            list_offsets[c + 1] = list_offsets[c] + counts[c];
        }
        let mut cursor = list_offsets.clone();
        let mut list_rows = vec![0u32; n];
        for (r, &c) in cell_of.iter().enumerate() {
            list_rows[cursor[c as usize] as usize] = r as u32;
            cursor[c as usize] += 1;
        }

        // PQ codebooks per subspace, seeded off the carried seed.
        let m = clamp_subspaces(dim, m);
        let dsub = dim / m;
        let kk = 256.min(n);
        let mut codebooks = vec![0.0f32; m * kk * dsub];
        let mut codes = vec![0u8; n * m];
        for s in 0..m {
            let mut sub = Vec::with_capacity(sample.len() * dsub);
            for &r in &sample {
                let row = &normed[r * dim..(r + 1) * dim];
                sub.extend_from_slice(&row[s * dsub..(s + 1) * dsub]);
            }
            let km = kmeans_seeded(&sub, dsub, kk, 8, seed.wrapping_add(1 + s as u64));
            // km.k may be < kk when the sample is tiny; unused slots stay zero
            let got = km.k;
            codebooks[s * kk * dsub..s * kk * dsub + got * dsub].copy_from_slice(&km.centroids);
            for r in 0..n {
                let row = &normed[r * dim..(r + 1) * dim];
                codes[r * m + s] = km.assign(&row[s * dsub..(s + 1) * dsub]) as u8;
            }
        }

        Self {
            dim,
            nprobe: nprobe.max(1),
            seed,
            ids: covered.to_vec(),
            coarse,
            list_offsets,
            list_rows,
            m,
            kk,
            dsub,
            codebooks,
            codes,
        }
    }

    #[inline]
    fn codebook_centroid(&self, s: usize, c: usize) -> &[f32] {
        let base = (s * self.kk + c) * self.dsub;
        &self.codebooks[base..base + self.dsub]
    }

    /// Quantized candidate generation: probe the `nprobe` nearest
    /// cells, score their rows with the fused ADC kernel, keep the
    /// `fetch` best non-skipped, emit user ids.
    fn candidates(
        &self,
        query: &[f32],
        fetch: usize,
        skip: &dyn Fn(u32) -> bool,
        scratch: &mut TierScratch,
    ) {
        let qn = sccf_tensor::mat::norm(query);
        if qn <= f32::EPSILON {
            return;
        }
        scratch.qbuf.clear();
        scratch.qbuf.extend(query.iter().map(|&v| v / qn));

        // Rank coarse cells (buffer-reusing).
        self.coarse.assign_multi_into(
            &scratch.qbuf,
            self.nprobe,
            &mut scratch.cell_rank,
            &mut scratch.cells,
        );

        // Per-query ADC lookup table.
        scratch.lut.clear();
        scratch.lut.resize(self.m * self.kk, 0.0);
        for s in 0..self.m {
            let qs = &scratch.qbuf[s * self.dsub..(s + 1) * self.dsub];
            for c in 0..self.kk {
                scratch.lut[s * self.kk + c] =
                    sccf_tensor::mat::dot(qs, self.codebook_centroid(s, c));
            }
        }

        // Gather probed rows, run the fused table-lookup kernel.
        scratch.adc_rows.clear();
        for &cell in &scratch.cells {
            let lo = self.list_offsets[cell as usize] as usize;
            let hi = self.list_offsets[cell as usize + 1] as usize;
            scratch.adc_rows.extend_from_slice(&self.list_rows[lo..hi]);
        }
        sccf_tensor::pq_adc_gather(
            &scratch.lut,
            self.kk,
            &self.codes,
            self.m,
            &scratch.adc_rows,
            &mut scratch.adc_scores,
        );

        // Keep the best `fetch` non-skipped rows; emit user ids.
        scratch.select.reset(fetch);
        for (&row, &score) in scratch.adc_rows.iter().zip(&scratch.adc_scores) {
            let user = self.ids[row as usize];
            if skip(user) {
                continue;
            }
            scratch.select.push(row, score);
        }
        scratch.select.drain_sorted_into(&mut scratch.ann);
        scratch
            .cand_ids
            .extend(scratch.ann.iter().map(|s| self.ids[s.id as usize]));
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.dim as u32);
        put_u64(out, self.nprobe as u64);
        put_u64(out, self.seed);
        put_u32(out, self.m as u32);
        put_u32(out, self.kk as u32);
        put_u32(out, self.dsub as u32);
        put_u32(out, self.coarse.k as u32);
        put_u64(out, self.ids.len() as u64);
        put_u32s(out, &self.ids);
        put_f32s(out, &self.coarse.centroids);
        put_u32s(out, &self.list_offsets);
        put_u32s(out, &self.list_rows);
        put_f32s(out, &self.codebooks);
        out.extend_from_slice(&self.codes);
    }

    fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let dim = r.u32()? as usize;
        if dim == 0 {
            return Err(CodecError::Invalid("zero dim"));
        }
        let nprobe = r.len_u64()?.max(1);
        let seed = r.u64()?;
        let m = r.u32()? as usize;
        let kk = r.u32()? as usize;
        let dsub = r.u32()? as usize;
        if m == 0 || kk == 0 || kk > 256 || m.checked_mul(dsub) != Some(dim) {
            return Err(CodecError::Invalid("pq geometry"));
        }
        let nlist = r.u32()? as usize;
        if nlist == 0 {
            return Err(CodecError::Invalid("zero nlist"));
        }
        let n = r.len_u64()?;
        let ids = r.u32s(n)?;
        let centroids = r.f32s(nlist.checked_mul(dim).ok_or(CodecError::Truncated)?)?;
        let list_offsets = r.u32s(nlist + 1)?;
        if list_offsets[0] != 0
            || list_offsets.windows(2).any(|w| w[0] > w[1])
            || list_offsets[nlist] as usize != n
        {
            return Err(CodecError::Invalid("list offsets"));
        }
        let list_rows = r.u32s(n)?;
        if list_rows.iter().any(|&x| x as usize >= n) {
            return Err(CodecError::Invalid("list row out of range"));
        }
        let cb_len = m
            .checked_mul(kk)
            .and_then(|x| x.checked_mul(dsub))
            .ok_or(CodecError::Truncated)?;
        let codebooks = r.f32s(cb_len)?;
        let codes = r
            .bytes(n.checked_mul(m).ok_or(CodecError::Truncated)?)?
            .to_vec();
        if codes.iter().any(|&c| c as usize >= kk) {
            return Err(CodecError::Invalid("code out of range"));
        }
        Ok(Self {
            dim,
            nprobe,
            seed,
            ids,
            coarse: KMeans {
                k: nlist,
                dim,
                centroids,
                assignment: Vec::new(),
            },
            list_offsets,
            list_rows,
            m,
            kk,
            dsub,
            codebooks,
            codes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn frozen_population(n: usize, dim: usize, seed: u64) -> FrozenUserIndex {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<(u32, Vec<f32>)> = (0..n as u32)
            .map(|id| (id, (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()))
            .collect();
        FrozenUserIndex::from_rows(n, dim, rows)
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
                let flat = frozen.search(&q, beta, &|_| false);
                let mut fast = Vec::new();
                accel.search_append(&frozen, &q, beta, &|_| false, &mut scratch, &mut fast);
                assert_bitwise_eq(&flat, &fast);
            }
        }
    }

    #[test]
    fn exhaustive_ivfpq_matches_flat_top_beta() {
        // nprobe = nlist probes everything, and OVERFETCH×β ≥ covered
        // makes the candidate set complete, so the exact rerank must
        // reproduce the flat top-β bit-for-bit.
        let n = 120usize;
        let frozen = frozen_population(n, 8, 4);
        let accel = FrozenTierAccel::build(
            FrozenTierMode::IvfPq {
                nlist: 4,
                nprobe: 4,
                m: 4,
            },
            &frozen,
            7,
        )
        .unwrap();
        let mut scratch = TierScratch::new();
        let beta = n / OVERFETCH; // fetch = OVERFETCH·β = n: complete
        for q in queries(10, 8, 5) {
            let flat = frozen.search(&q, beta, &|_| false);
            let mut fast = Vec::new();
            accel.search_append(&frozen, &q, beta, &|_| false, &mut scratch, &mut fast);
            assert_bitwise_eq(&flat, &fast);
        }
    }

    #[test]
    fn skip_predicate_is_respected_in_both_modes() {
        let frozen = frozen_population(200, 8, 6);
        let modes = [
            FrozenTierMode::Hnsw { ef: 200 },
            FrozenTierMode::IvfPq {
                nlist: 4,
                nprobe: 4,
                m: 4,
            },
        ];
        let mut scratch = TierScratch::new();
        for mode in modes {
            let accel = FrozenTierAccel::build(mode, &frozen, 7).unwrap();
            for q in queries(5, 8, 8) {
                let mut out = Vec::new();
                accel.search_append(&frozen, &q, 20, &|id| id % 3 == 0, &mut scratch, &mut out);
                assert!(!out.is_empty());
                assert!(out.iter().all(|s| s.id % 3 != 0), "{:?}", mode.label());
                // and equals the flat scan under the same skip (both
                // exhaustive here)
                let flat = frozen.search(&q, 20, &|id| id % 3 == 0);
                assert_bitwise_eq(&flat, &out);
            }
        }
    }

    #[test]
    fn partial_parameters_recall_is_reasonable() {
        let frozen = frozen_population(600, 16, 9);
        let accel = FrozenTierAccel::build(
            FrozenTierMode::IvfPq {
                nlist: 16,
                nprobe: 6,
                m: 4,
            },
            &frozen,
            7,
        )
        .unwrap();
        let mut scratch = TierScratch::new();
        let beta = 20usize;
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in queries(20, 16, 10) {
            let exact: Vec<u32> = frozen
                .search(&q, beta, &|_| false)
                .iter()
                .map(|s| s.id)
                .collect();
            let mut fast = Vec::new();
            accel.search_append(&frozen, &q, beta, &|_| false, &mut scratch, &mut fast);
            hits += fast.iter().filter(|s| exact.contains(&s.id)).count();
            total += exact.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.6, "ivf-pq recall@20 = {recall}");
    }

    #[test]
    fn encode_decode_roundtrip_is_byte_identical_and_search_equal() {
        let frozen = frozen_population(150, 8, 11);
        let modes = [
            FrozenTierMode::Hnsw { ef: 64 },
            FrozenTierMode::IvfPq {
                nlist: 5,
                nprobe: 3,
                m: 4,
            },
        ];
        for mode in modes {
            let accel = FrozenTierAccel::build(mode, &frozen, 13).unwrap();
            let mut bytes = Vec::new();
            let n = accel.encode_into(&mut bytes);
            assert_eq!(n, bytes.len());
            let mut r = Reader::new(&bytes);
            let back = FrozenTierAccel::decode_from(&mut r).expect("roundtrip");
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
    }

    #[test]
    fn seeded_rebuild_is_byte_identical() {
        let frozen = frozen_population(100, 8, 14);
        let mode = FrozenTierMode::IvfPq {
            nlist: 4,
            nprobe: 2,
            m: 2,
        };
        let a = FrozenTierAccel::build(mode, &frozen, 99).unwrap();
        let b = FrozenTierAccel::build(mode, &frozen, 99).unwrap();
        let (mut ba, mut bb) = (Vec::new(), Vec::new());
        a.encode_into(&mut ba);
        b.encode_into(&mut bb);
        assert_eq!(ba, bb);
    }

    #[test]
    fn subspace_clamp_picks_largest_divisor() {
        assert_eq!(clamp_subspaces(16, 8), 8);
        assert_eq!(clamp_subspaces(16, 5), 4);
        assert_eq!(clamp_subspaces(15, 4), 3);
        assert_eq!(clamp_subspaces(7, 4), 1);
        assert_eq!(clamp_subspaces(8, 100), 8);
    }

    #[test]
    fn steady_state_search_does_not_allocate_in_scratch() {
        let frozen = frozen_population(400, 8, 15);
        let accel = FrozenTierAccel::build(
            FrozenTierMode::IvfPq {
                nlist: 8,
                nprobe: 8,
                m: 4,
            },
            &frozen,
            7,
        )
        .unwrap();
        let mut scratch = TierScratch::new();
        let qs = queries(8, 8, 16);
        let mut out = Vec::new();
        // warm up: buffers grow to their steady-state capacity
        for q in &qs {
            out.clear();
            accel.search_append(&frozen, q, 25, &|_| false, &mut scratch, &mut out);
        }
        let caps = (
            scratch.cand_ids.capacity(),
            scratch.lut.capacity(),
            scratch.adc_rows.capacity(),
            scratch.adc_scores.capacity(),
            scratch.ann.capacity(),
            scratch.qbuf.capacity(),
            scratch.cells.capacity(),
        );
        for q in &qs {
            out.clear();
            accel.search_append(&frozen, q, 25, &|_| false, &mut scratch, &mut out);
        }
        assert_eq!(
            caps,
            (
                scratch.cand_ids.capacity(),
                scratch.lut.capacity(),
                scratch.adc_rows.capacity(),
                scratch.adc_scores.capacity(),
                scratch.ann.capacity(),
                scratch.qbuf.capacity(),
                scratch.cells.capacity(),
            ),
            "tier scratch must reach a fixed point"
        );
    }
}
