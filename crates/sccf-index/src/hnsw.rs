//! HNSW (Hierarchical Navigable Small World) graph index — the
//! logarithmic-time ANN structure used in production vector stores
//! (Malkov & Yashunin 2018), the approximate counterpart of the exact
//! [`FlatIndex`](crate::flat::FlatIndex).
//!
//! Nodes are inserted with a geometrically distributed top level; search
//! descends greedily through the upper layers and runs a best-first
//! beam (`ef`) at the bottom layer. Neighbor selection uses Malkov &
//! Yashunin's diversity heuristic (their Algorithm 4): a candidate is
//! linked only if it is closer to the new node than to any
//! already-selected neighbor, with pruned candidates refilled when slots
//! remain. On clustered data — exactly what user embeddings look like
//! (interest groups) — the naive top-M rule wires each cluster into an
//! isolated clique and search cannot leave the entry cluster; the
//! heuristic keeps inter-cluster bridges and restores recall (see the
//! `clustered_data_recall` regression test).

use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sccf_util::codec::{put_bool, put_f32s, put_u32, put_u32s, put_u64, Reader};
use sccf_util::sparse::StampSet;
use sccf_util::topk::{Scored, TopK};

use crate::metric::Metric;
use crate::CodecError;

/// Reusable search state for [`HnswIndex`]: the visited set, the
/// best-first frontier and the bounded beam. One of these lives in the
/// serving `QueryScratch`, so steady-state graph searches allocate
/// nothing (the visited [`StampSet`] clears in O(1) via epoch stamps).
#[derive(Debug)]
pub struct HnswScratch {
    visited: StampSet,
    frontier: BinaryHeap<Scored>,
    best: TopK,
}

impl HnswScratch {
    pub fn new() -> Self {
        Self {
            visited: StampSet::new(0),
            frontier: BinaryHeap::new(),
            best: TopK::new(0),
        }
    }

    /// Grow the visited set to cover ids `0..n`. Growth re-allocates;
    /// at steady state (fixed population) this is a no-op.
    fn ensure(&mut self, n: usize) {
        if self.visited.slots() < n {
            self.visited = StampSet::new(n);
        }
    }
}

impl Default for HnswScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// HNSW build/search parameters.
#[derive(Debug, Clone)]
pub struct HnswConfig {
    /// Max neighbors per node per upper layer (layer 0 keeps `2·m`).
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Default beam width during search (raise for recall).
    pub ef_search: usize,
    /// Level sampling seed.
    pub seed: u64,
}

impl Default for HnswConfig {
    fn default() -> Self {
        Self {
            m: 16,
            ef_construction: 100,
            ef_search: 64,
            seed: 42,
        }
    }
}

/// Approximate nearest-neighbor graph index.
pub struct HnswIndex {
    dim: usize,
    metric: Metric,
    cfg: HnswConfig,
    data: Vec<f32>,
    /// Per-node top level.
    levels: Vec<u8>,
    /// `graph[l][node]` = neighbor ids at layer `l` (empty above a node's
    /// level).
    graph: Vec<Vec<Vec<u32>>>,
    entry: Option<u32>,
    rng: StdRng,
    /// 1 / ln(m): the standard level-sampling multiplier.
    level_mult: f64,
    /// Construction-time search state, reused across [`HnswIndex::add`]
    /// calls via `mem::take` so bulk builds don't allocate per insert.
    build_scratch: HnswScratch,
    build_out: Vec<Scored>,
}

impl HnswIndex {
    pub fn new(dim: usize, metric: Metric, cfg: HnswConfig) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(cfg.m >= 2, "m must be at least 2");
        let level_mult = 1.0 / (cfg.m as f64).ln();
        Self {
            dim,
            metric,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            data: Vec::new(),
            levels: Vec::new(),
            graph: Vec::new(),
            entry: None,
            level_mult,
            build_scratch: HnswScratch::new(),
            build_out: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.levels.len()
    }

    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The configured default search beam width (what the one-shot
    /// search wrappers use when no explicit `ef` is given).
    pub fn ef_search(&self) -> usize {
        self.cfg.ef_search
    }

    /// Resident bytes of the graph: vectors, level tags, and adjacency
    /// lists. What the serving stats surface reports as tier memory.
    pub fn memory_bytes(&self) -> usize {
        let adj: usize = self
            .graph
            .iter()
            .map(|layer| layer.iter().map(|nbrs| nbrs.len() * 4).sum::<usize>())
            .sum();
        self.data.len() * 4 + self.levels.len() + adj
    }

    #[inline]
    fn vector(&self, id: u32) -> &[f32] {
        let start = id as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    #[inline]
    fn score(&self, q: &[f32], id: u32) -> f32 {
        self.metric.score(q, self.vector(id))
    }

    fn max_neighbors(&self, layer: usize) -> usize {
        if layer == 0 {
            self.cfg.m * 2
        } else {
            self.cfg.m
        }
    }

    fn sample_level(&mut self) -> usize {
        let u: f64 = self.rng.gen::<f64>().max(1e-12);
        ((-u.ln()) * self.level_mult).floor() as usize
    }

    /// Greedy best-first search restricted to one layer; fills `out`
    /// with up to `ef` best candidates (descending score).
    ///
    /// `filter` restricts *result collection only*: filtered nodes are
    /// still traversed and may seed the frontier, so a skip predicate
    /// (merge-time "the delta tier owns this user") cannot disconnect
    /// the walk or starve recall — the standard filtered-HNSW design.
    /// With `filter = None` the algorithm is the original unfiltered
    /// beam, bit-for-bit.
    #[allow(clippy::too_many_arguments)] // one beam, fully threaded scratch
    fn search_layer_into(
        &self,
        q: &[f32],
        entry: u32,
        ef: usize,
        layer: usize,
        filter: Option<&dyn Fn(u32) -> bool>,
        scratch: &mut HnswScratch,
        out: &mut Vec<Scored>,
    ) {
        scratch.ensure(self.len());
        scratch.visited.clear();
        scratch.frontier.clear();
        scratch.best.reset(ef);
        let keep = |id: u32| filter.is_none_or(|f| !f(id));
        scratch.visited.insert(entry);
        let entry_scored = Scored {
            id: entry,
            score: self.score(q, entry),
        };
        // frontier: max-heap by score (explore best first)
        scratch.frontier.push(entry_scored);
        if keep(entry) {
            scratch.best.push(entry_scored.id, entry_scored.score);
        }
        while let Some(cand) = scratch.frontier.pop() {
            if let Some(threshold) = scratch.best.threshold() {
                if cand.score < threshold {
                    break; // no candidate can improve the beam anymore
                }
            }
            for &n in &self.graph[layer][cand.id as usize] {
                if !scratch.visited.insert(n) {
                    continue;
                }
                let s = self.score(q, n);
                if scratch.best.threshold().is_none_or(|t| s > t) {
                    scratch.frontier.push(Scored { id: n, score: s });
                    if keep(n) {
                        scratch.best.push(n, s);
                    }
                }
            }
        }
        scratch.best.drain_sorted_into(out);
    }

    /// Diversity-aware neighbor selection (Malkov & Yashunin, Alg. 4):
    /// walk `candidates` best-first and keep `c` only if it is more
    /// similar to `base` than to every neighbor kept so far; refill
    /// leftover slots from the pruned list (the `keepPrunedConnections`
    /// variant). This is what keeps bridges between clusters alive.
    fn select_diverse(&self, candidates: &[Scored], max_n: usize) -> Vec<u32> {
        let mut selected: Vec<u32> = Vec::with_capacity(max_n);
        let mut pruned: Vec<u32> = Vec::new();
        for c in candidates {
            if selected.len() >= max_n {
                break;
            }
            let cv = self.vector(c.id);
            let diverse = selected
                .iter()
                .all(|&s| self.metric.score(cv, self.vector(s)) < c.score);
            if diverse {
                selected.push(c.id);
            } else {
                pruned.push(c.id);
            }
        }
        for p in pruned {
            if selected.len() >= max_n {
                break;
            }
            selected.push(p);
        }
        selected
    }

    /// Insert a vector; its id is `len()` before the call.
    pub fn add(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let id = self.len() as u32;
        let level = self.sample_level();
        self.data.extend_from_slice(v);
        self.levels.push(level as u8);
        while self.graph.len() <= level {
            let mut layer = Vec::with_capacity(self.len());
            layer.resize(self.len().saturating_sub(1), Vec::new());
            self.graph.push(layer);
        }
        let n = self.len();
        for layer in &mut self.graph {
            layer.resize(n, Vec::new());
        }

        let Some(mut ep) = self.entry else {
            self.entry = Some(id);
            return id;
        };

        let top = self.graph.len() - 1;
        let ep_level = self.levels[ep as usize] as usize;
        // greedy descent through layers above the new node's level
        for l in ((level + 1)..=ep_level.min(top)).rev() {
            ep = self.greedy_step(v, ep, l);
        }
        let mut scratch = std::mem::take(&mut self.build_scratch);
        let mut found = std::mem::take(&mut self.build_out);
        // connect at each layer from min(level, top) down to 0
        for l in (0..=level.min(top)).rev() {
            self.search_layer_into(
                v,
                ep,
                self.cfg.ef_construction,
                l,
                None,
                &mut scratch,
                &mut found,
            );
            let max_n = self.max_neighbors(l);
            let neighbors = self.select_diverse(&found, max_n);
            for &n in &neighbors {
                self.graph[l][id as usize].push(n);
                self.graph[l][n as usize].push(id);
                // re-select the neighbor's adjacency if it overflowed
                if self.graph[l][n as usize].len() > max_n {
                    let nv = self.vector(n).to_vec();
                    let mut scored: Vec<Scored> = self.graph[l][n as usize]
                        .iter()
                        .map(|&x| Scored {
                            id: x,
                            score: self.metric.score(&nv, self.vector(x)),
                        })
                        .collect();
                    scored.sort_unstable_by(|a, b| b.cmp(a));
                    self.graph[l][n as usize] = self.select_diverse(&scored, max_n);
                }
            }
            if let Some(first) = found.first() {
                ep = first.id;
            }
        }
        self.build_scratch = scratch;
        self.build_out = found;
        // new global entry point if this node tops the hierarchy
        if level > self.levels[self.entry.expect("non-empty") as usize] as usize {
            self.entry = Some(id);
        }
        id
    }

    fn greedy_step(&self, q: &[f32], mut ep: u32, layer: usize) -> u32 {
        let mut best = self.score(q, ep);
        loop {
            let mut improved = false;
            for &n in &self.graph[layer][ep as usize] {
                let s = self.score(q, n);
                if s > best {
                    best = s;
                    ep = n;
                    improved = true;
                }
            }
            if !improved {
                return ep;
            }
        }
    }

    /// Approximate top-k search with the default beam width.
    ///
    /// Legacy wrapper over [`HnswIndex::search_filtered`]: the single
    /// optional `exclude` id is the degenerate skip predicate. New call
    /// sites should pass a predicate (and, on hot paths, a scratch via
    /// [`HnswIndex::search_filtered_into`]).
    pub fn search(&self, query: &[f32], k: usize, exclude: Option<u32>) -> Vec<Scored> {
        self.search_with_ef(query, k, exclude, self.cfg.ef_search)
    }

    /// Approximate top-k with an explicit beam width `ef ≥ k` (legacy
    /// `exclude` form; wraps the skip-predicate search).
    pub fn search_with_ef(
        &self,
        query: &[f32],
        k: usize,
        exclude: Option<u32>,
        ef: usize,
    ) -> Vec<Scored> {
        match exclude {
            Some(ex) => self.search_filtered_with_ef(query, k, &|id| id == ex, ef),
            None => {
                let mut scratch = HnswScratch::new();
                let mut out = Vec::new();
                self.search_filtered_into(query, k, ef, None, &mut scratch, &mut out);
                out
            }
        }
    }

    /// Approximate top-k, skipping every id for which `skip` returns
    /// true, with the default beam width.
    pub fn search_filtered(
        &self,
        query: &[f32],
        k: usize,
        skip: &dyn Fn(u32) -> bool,
    ) -> Vec<Scored> {
        self.search_filtered_with_ef(query, k, skip, self.cfg.ef_search)
    }

    /// Skip-predicate top-k with an explicit beam width. One-shot form
    /// that allocates its own scratch; hot paths use
    /// [`HnswIndex::search_filtered_into`].
    pub fn search_filtered_with_ef(
        &self,
        query: &[f32],
        k: usize,
        skip: &dyn Fn(u32) -> bool,
        ef: usize,
    ) -> Vec<Scored> {
        let mut scratch = HnswScratch::new();
        let mut out = Vec::new();
        self.search_filtered_into(query, k, ef, Some(skip), &mut scratch, &mut out);
        out
    }

    /// Zero-allocation skip-predicate search: `out` is cleared and
    /// filled with up to `k` results, descending score (ties: ascending
    /// id). Skipped ids are still traversed — they just never enter the
    /// result beam — so filtering cannot disconnect the graph walk.
    ///
    /// With `ef >= len()` the beam never saturates, the walk visits the
    /// whole connected component (layer 0 is connected by construction)
    /// and the result is the *exact* top-k over the non-skipped ids —
    /// the property the frozen tier's exhaustive-parameter pin relies on.
    pub fn search_filtered_into(
        &self,
        query: &[f32],
        k: usize,
        ef: usize,
        skip: Option<&dyn Fn(u32) -> bool>,
        scratch: &mut HnswScratch,
        out: &mut Vec<Scored>,
    ) {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        out.clear();
        let Some(mut ep) = self.entry else {
            return;
        };
        let top = self.graph.len().saturating_sub(1);
        let ep_level = self.levels[ep as usize] as usize;
        for l in (1..=ep_level.min(top)).rev() {
            ep = self.greedy_step(query, ep, l);
        }
        self.search_layer_into(query, ep, ef.max(k), 0, skip, scratch, out);
        out.truncate(k);
    }

    /// Serialize the full graph structure (config, vectors, levels,
    /// entry point, per-layer adjacency as degree + edge arrays), all
    /// little-endian. Appends to `out` and returns the byte count, so
    /// a containing snapshot can length-prefix the section.
    pub fn encode_into(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        out.extend_from_slice(HNSW_MAGIC);
        put_u32(out, self.dim as u32);
        out.push(metric_tag(self.metric));
        put_u32(out, self.cfg.m as u32);
        put_u32(out, self.cfg.ef_construction as u32);
        put_u32(out, self.cfg.ef_search as u32);
        put_u64(out, self.cfg.seed);
        put_u64(out, self.len() as u64);
        put_bool(out, self.entry.is_some());
        put_u32(out, self.entry.unwrap_or(0));
        out.extend_from_slice(&self.levels);
        put_f32s(out, &self.data);
        put_u32(out, self.graph.len() as u32);
        for layer in &self.graph {
            let edges: usize = layer.iter().map(Vec::len).sum();
            put_u64(out, edges as u64);
            for adj in layer {
                put_u32(out, adj.len() as u32);
            }
            for adj in layer {
                put_u32s(out, adj);
            }
        }
        out.len() - start
    }

    /// Decode an [`HnswIndex::encode_into`] section from the front of
    /// `bytes` via `r`. The decoded index searches identically to the
    /// original; its level-sampling RNG restarts from `cfg.seed`, so it
    /// is meant for read-mostly use (further `add`s are valid but don't
    /// replay the original insertion stream).
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.magic(HNSW_MAGIC)?;
        let dim = r.u32()? as usize;
        if dim == 0 {
            return Err(CodecError::Invalid("zero dim"));
        }
        let metric = metric_from_tag(r.u8()?)?;
        let m = r.u32()? as usize;
        if m < 2 {
            return Err(CodecError::Invalid("m < 2"));
        }
        let ef_construction = r.u32()? as usize;
        let ef_search = r.u32()? as usize;
        let seed = r.u64()?;
        let n = r.len_u64()?;
        let entry_flag = r.u8()?;
        let entry_id = r.u32()?;
        let entry = match entry_flag {
            0 if n == 0 => None,
            1 if (entry_id as usize) < n => Some(entry_id),
            _ => return Err(CodecError::Invalid("entry point")),
        };
        let levels = r.bytes(n)?.to_vec();
        let count = n.checked_mul(dim).ok_or(CodecError::Truncated)?;
        let data = r.f32s(count)?;
        // Every layer costs at least its u64 edge total, and levels are
        // u8 — an empty index must not size `graph` from a raw u32.
        let n_layers = r.count_u32(8)?;
        let max_level = levels.iter().copied().max().unwrap_or(0) as usize;
        if n_layers > 256 || (n > 0 && n_layers != max_level + 1) {
            return Err(CodecError::Invalid("layer count vs levels"));
        }
        let mut graph = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let edges_total = r.len_u64()?;
            let degrees = r.u32s(n)?;
            let sum: usize = degrees.iter().map(|&d| d as usize).sum();
            if sum != edges_total {
                return Err(CodecError::Invalid("edge count vs degrees"));
            }
            let mut layer = Vec::with_capacity(n);
            for &d in &degrees {
                let adj = r.u32s(d as usize)?;
                if adj.iter().any(|&x| x as usize >= n) {
                    return Err(CodecError::Invalid("neighbor id out of range"));
                }
                layer.push(adj);
            }
            graph.push(layer);
        }
        let cfg = HnswConfig {
            m,
            ef_construction,
            ef_search,
            seed,
        };
        let level_mult = 1.0 / (m as f64).ln();
        Ok(Self {
            dim,
            metric,
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            data,
            levels,
            graph,
            entry,
            level_mult,
            build_scratch: HnswScratch::new(),
            build_out: Vec::new(),
        })
    }
}

const HNSW_MAGIC: &[u8; 8] = b"SCCFHN01";

fn metric_tag(m: Metric) -> u8 {
    match m {
        Metric::InnerProduct => 0,
        Metric::Cosine => 1,
    }
}

fn metric_from_tag(t: u8) -> Result<Metric, CodecError> {
    match t {
        0 => Ok(Metric::InnerProduct),
        1 => Ok(Metric::Cosine),
        _ => Err(CodecError::Invalid("metric tag")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use sccf_util::hash::FxHashSet;
    use sccf_util::topk::topk_of_pairs;

    fn random_slab(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    /// The graph under `metric`, and the exact cosine reference over the
    /// same rows.
    fn build(n: usize, dim: usize, metric: Metric) -> (HnswIndex, FlatIndex) {
        let slab = random_slab(n, dim, 7);
        let mut hnsw = HnswIndex::new(dim, metric, HnswConfig::default());
        let mut flat = FlatIndex::new(dim);
        for v in slab.chunks_exact(dim) {
            hnsw.add(v);
            flat.add(v);
        }
        (hnsw, flat)
    }

    #[test]
    fn empty_index_returns_nothing() {
        let h = HnswIndex::new(4, Metric::InnerProduct, HnswConfig::default());
        assert!(h.search(&[0.0; 4], 5, None).is_empty());
    }

    #[test]
    fn single_element() {
        let mut h = HnswIndex::new(2, Metric::InnerProduct, HnswConfig::default());
        h.add(&[1.0, 0.0]);
        let hits = h.search(&[1.0, 0.0], 3, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn recall_against_flat() {
        let (hnsw, flat) = build(2000, 16, Metric::Cosine);
        let mut rng = StdRng::seed_from_u64(3);
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..30 {
            let q: Vec<f32> = (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let exact: FxHashSet<u32> = flat.search(&q, 10, None).iter().map(|s| s.id).collect();
            let approx = hnsw.search_with_ef(&q, 10, None, 128);
            hits += approx.iter().filter(|s| exact.contains(&s.id)).count();
            total += exact.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.85, "recall@10 = {recall}");
    }

    #[test]
    fn higher_ef_does_not_reduce_recall() {
        let (hnsw, _) = build(1000, 8, Metric::InnerProduct);
        let slab = random_slab(1000, 8, 7);
        let mut rng = StdRng::seed_from_u64(5);
        let mut recall_at = |ef: usize| {
            let mut hits = 0usize;
            let mut total = 0usize;
            for qi in 0..20 {
                let _ = qi;
                let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let scored = slab.chunks_exact(8).enumerate();
                let exact: FxHashSet<u32> = topk_of_pairs(
                    scored.map(|(id, v)| (id as u32, Metric::InnerProduct.score(&q, v))),
                    5,
                )
                .iter()
                .map(|s| s.id)
                .collect();
                hits += hnsw
                    .search_with_ef(&q, 5, None, ef)
                    .iter()
                    .filter(|s| exact.contains(&s.id))
                    .count();
                total += 5;
            }
            hits as f64 / total as f64
        };
        let low = recall_at(8);
        let high = recall_at(256);
        assert!(high >= low - 0.05, "ef=8: {low}, ef=256: {high}");
        assert!(high > 0.8, "high-beam recall too low: {high}");
    }

    #[test]
    fn exclude_is_respected() {
        let (hnsw, _) = build(200, 8, Metric::InnerProduct);
        let q = hnsw.vector(17).to_vec();
        let hits = hnsw.search(&q, 10, Some(17));
        assert!(hits.iter().all(|s| s.id != 17));
    }

    #[test]
    fn results_sorted_descending() {
        let (hnsw, _) = build(500, 8, Metric::Cosine);
        let q = random_slab(1, 8, 11);
        let hits = hnsw.search(&q, 20, None);
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
        assert!(hits.len() <= 20);
    }

    #[test]
    fn deterministic_construction() {
        let slab = random_slab(300, 8, 13);
        let build_once = || {
            let mut h = HnswIndex::new(8, Metric::InnerProduct, HnswConfig::default());
            for v in slab.chunks_exact(8) {
                h.add(v);
            }
            h
        };
        let a = build_once();
        let b = build_once();
        let q = &slab[..8];
        let ha: Vec<u32> = a.search(q, 5, None).iter().map(|s| s.id).collect();
        let hb: Vec<u32> = b.search(q, 5, None).iter().map(|s| s.id).collect();
        assert_eq!(ha, hb);
    }

    #[test]
    fn clustered_data_recall() {
        // Regression: with naive top-M neighbor selection, tight clusters
        // become isolated cliques and beam search cannot leave the entry
        // cluster (measured recall@100 ≈ 0.31 on this workload). The
        // diversity heuristic must keep inter-cluster bridges.
        let (n, dim, clusters) = (2000usize, 16usize, 12usize);
        let mut rng = StdRng::seed_from_u64(21);
        let centers: Vec<Vec<f32>> = (0..clusters)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mut slab = Vec::with_capacity(n * dim);
        for i in 0..n {
            let c = &centers[i % clusters];
            slab.extend(c.iter().map(|&v| v + rng.gen_range(-0.25f32..0.25)));
        }
        let mut hnsw = HnswIndex::new(dim, Metric::Cosine, HnswConfig::default());
        let mut flat = FlatIndex::new(dim);
        for v in slab.chunks_exact(dim) {
            hnsw.add(v);
            flat.add(v);
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for _ in 0..20 {
            let q: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let exact: FxHashSet<u32> = flat.search(&q, 100, None).iter().map(|s| s.id).collect();
            hits += hnsw
                .search_with_ef(&q, 100, None, 128)
                .iter()
                .filter(|s| exact.contains(&s.id))
                .count();
            total += exact.len();
        }
        let recall = hits as f64 / total as f64;
        assert!(recall > 0.8, "clustered recall@100 = {recall}");
    }

    #[test]
    fn filtered_search_skips_predicate_ids() {
        let (hnsw, _) = build(300, 8, Metric::Cosine);
        let q = random_slab(1, 8, 19);
        let hits = hnsw.search_filtered(&q, 20, &|id| id % 3 == 0);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|s| s.id % 3 != 0));
    }

    #[test]
    fn exhaustive_ef_matches_flat_bitwise() {
        // With ef >= n the beam never saturates: the walk visits the
        // whole (connected) layer-0 graph, so the result must equal the
        // flat scan exactly — ids, order and float bits.
        let (hnsw, flat) = build(400, 8, Metric::Cosine);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..10 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let exact = flat.search(&q, 15, None);
            let approx = hnsw.search_with_ef(&q, 15, None, 400);
            assert_eq!(exact.len(), approx.len());
            for (e, a) in exact.iter().zip(&approx) {
                assert_eq!(e.id, a.id);
                assert_eq!(e.score.to_bits(), a.score.to_bits());
            }
        }
    }

    #[test]
    fn scratch_reuse_matches_one_shot() {
        let (hnsw, _) = build(300, 8, Metric::InnerProduct);
        let mut scratch = HnswScratch::new();
        let mut out = Vec::new();
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..5 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let skip = |id: u32| id < 10;
            hnsw.search_filtered_into(&q, 12, 64, Some(&skip), &mut scratch, &mut out);
            let one_shot = hnsw.search_filtered_with_ef(&q, 12, &skip, 64);
            assert_eq!(out, one_shot);
        }
    }

    #[test]
    fn encode_decode_roundtrip_searches_identically() {
        let (hnsw, _) = build(250, 8, Metric::Cosine);
        let mut bytes = Vec::new();
        let written = hnsw.encode_into(&mut bytes);
        assert_eq!(written, bytes.len());
        let mut r = Reader::new(&bytes);
        let back = HnswIndex::decode_from(&mut r).expect("roundtrip");
        assert_eq!(r.remaining(), 0);
        let mut rng = StdRng::seed_from_u64(31);
        for _ in 0..8 {
            let q: Vec<f32> = (0..8).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            assert_eq!(hnsw.search(&q, 10, None), back.search(&q, 10, None));
        }
        // corrupting the magic is a typed failure
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert_eq!(
            HnswIndex::decode_from(&mut Reader::new(&bad)).err(),
            Some(CodecError::BadMagic)
        );
        // so is the retired L2 metric tag (the byte after magic + dim)
        let mut l2 = bytes.clone();
        l2[HNSW_MAGIC.len() + 4] = 2;
        assert_eq!(
            HnswIndex::decode_from(&mut Reader::new(&l2)).err(),
            Some(CodecError::Invalid("metric tag"))
        );
        // truncation is a typed failure
        assert!(HnswIndex::decode_from(&mut Reader::new(&bytes[..bytes.len() - 3])).is_err());
    }

    /// Regression: with `n == 0` the layer count was not checked against
    /// anything, so `u32::MAX` sized a 103 GB `Vec::with_capacity`.
    #[test]
    fn empty_index_with_a_huge_layer_count_is_typed() {
        let mut bytes = Vec::new();
        HnswIndex::new(4, Metric::Cosine, HnswConfig::default()).encode_into(&mut bytes);
        let layers_at = bytes.len() - 4; // an empty index ends with n_layers = 0
        HnswIndex::decode_from(&mut Reader::new(&bytes)).expect("empty index roundtrips");
        bytes[layers_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            HnswIndex::decode_from(&mut Reader::new(&bytes)).err(),
            Some(CodecError::Truncated)
        );
        // Enough bytes behind it to pass the stream bound: the u8 level
        // ceiling still rejects it.
        bytes[layers_at..].copy_from_slice(&257u32.to_le_bytes());
        bytes.resize(bytes.len() + 257 * 8, 0);
        assert_eq!(
            HnswIndex::decode_from(&mut Reader::new(&bytes)).err(),
            Some(CodecError::Invalid("layer count vs levels"))
        );
    }

    #[test]
    fn degree_bounds_hold() {
        let (hnsw, _) = build(800, 8, Metric::InnerProduct);
        for (l, layer) in hnsw.graph.iter().enumerate() {
            let cap = hnsw.max_neighbors(l);
            for adj in layer {
                assert!(adj.len() <= cap, "layer {l} degree {} > {cap}", adj.len());
            }
        }
    }
}
