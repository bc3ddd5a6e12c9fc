//! Exact (brute-force) similarity index over dense vectors.
//!
//! Contiguous `n × d` storage, linear scan with a bounded top-k heap —
//! `O(n·d)` per query but with perfect recall and excellent cache
//! behavior. This is the reference the approximate structures are tested
//! against, the updatable cosine user index the real-time engine mutates
//! after every event (Eq. 11), and (paper §IV-D) already fast
//! enough to beat UserKNN's sparse set intersections by an order of
//! magnitude because user vectors are low-dimensional.

use sccf_util::topk::{Scored, TopK};

use crate::metric::Metric;

/// Exact vector index with stable external ids (insertion order).
#[derive(Debug, Clone)]
pub struct FlatIndex {
    dim: usize,
    metric: Metric,
    data: Vec<f32>,
    /// Pre-computed norms for cosine queries against raw storage.
    norms: Vec<f32>,
}

impl FlatIndex {
    pub fn new(dim: usize, metric: Metric) -> Self {
        assert!(dim > 0, "dimension must be positive");
        Self {
            dim,
            metric,
            data: Vec::new(),
            norms: Vec::new(),
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    pub fn len(&self) -> usize {
        self.norms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.norms.is_empty()
    }

    /// Append a vector; its id is `len()` before the call.
    pub fn add(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let id = self.len() as u32;
        self.data.extend_from_slice(v);
        self.norms.push(sccf_tensor::mat::norm(v));
        id
    }

    /// Append many vectors from a row-major slab.
    pub fn add_batch(&mut self, vs: &[f32]) {
        assert!(vs.len().is_multiple_of(self.dim), "batch length mismatch");
        for chunk in vs.chunks_exact(self.dim) {
            self.add(chunk);
        }
    }

    /// Overwrite the vector for `id` (real-time user updates).
    pub fn update(&mut self, id: u32, v: &[f32]) {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let start = id as usize * self.dim;
        self.data[start..start + self.dim].copy_from_slice(v);
        self.norms[id as usize] = sccf_tensor::mat::norm(v);
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
        if i != last {
            let (head, tail) = self.data.split_at_mut(last * self.dim);
            head[i * self.dim..(i + 1) * self.dim].copy_from_slice(&tail[..self.dim]);
            self.norms[i] = self.norms[last];
        }
        self.data.truncate(last * self.dim);
        self.norms.truncate(last);
    }

    /// The stored vector for `id`.
    pub fn vector(&self, id: u32) -> &[f32] {
        let start = id as usize * self.dim;
        &self.data[start..start + self.dim]
    }

    /// Exact top-k by the index metric. `exclude` (typically the querying
    /// user's own id, since `u ∉ N_u`) is skipped.
    pub fn search(&self, query: &[f32], k: usize, exclude: Option<u32>) -> Vec<Scored> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut tk = TopK::new(k);
        match self.metric {
            Metric::InnerProduct => {
                for (id, row) in self.data.chunks_exact(self.dim).enumerate() {
                    if exclude == Some(id as u32) {
                        continue;
                    }
                    tk.push(id as u32, sccf_tensor::mat::dot(query, row));
                }
            }
            Metric::Cosine => {
                let qn = sccf_tensor::mat::norm(query);
                if qn <= f32::EPSILON {
                    return Vec::new();
                }
                for (id, row) in self.data.chunks_exact(self.dim).enumerate() {
                    if exclude == Some(id as u32) {
                        continue;
                    }
                    let n = self.norms[id];
                    if n <= f32::EPSILON {
                        continue;
                    }
                    tk.push(id as u32, sccf_tensor::mat::dot(query, row) / (qn * n));
                }
            }
        }
        tk.into_sorted_vec()
    }

    /// Score every stored vector against `query` into a dense vector —
    /// used when the caller needs the full ranking (evaluation on the
    /// whole item set).
    pub fn score_all(&self, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.dim);
        self.data
            .chunks_exact(self.dim)
            .enumerate()
            .map(|(id, row)| match self.metric {
                Metric::InnerProduct => sccf_tensor::mat::dot(query, row),
                Metric::Cosine => {
                    let qn = sccf_tensor::mat::norm(query);
                    let n = self.norms[id];
                    if qn <= f32::EPSILON || n <= f32::EPSILON {
                        0.0
                    } else {
                        sccf_tensor::mat::dot(query, row) / (qn * n)
                    }
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_index() -> FlatIndex {
        let mut idx = FlatIndex::new(2, Metric::InnerProduct);
        idx.add(&[1.0, 0.0]); // 0
        idx.add(&[0.0, 1.0]); // 1
        idx.add(&[1.0, 1.0]); // 2
        idx
    }

    #[test]
    fn exact_top1_inner_product() {
        let idx = unit_index();
        let hits = idx.search(&[2.0, 1.0], 1, None);
        assert_eq!(hits[0].id, 2);
        assert!((hits[0].score - 3.0).abs() < 1e-6);
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
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        idx.add(&[10.0, 0.0]);
        idx.add(&[0.0, 0.1]);
        let hits = idx.search(&[1.0, 0.0], 2, None);
        assert_eq!(hits[0].id, 0);
        assert!((hits[0].score - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_query_returns_empty() {
        let idx = {
            let mut i = FlatIndex::new(2, Metric::Cosine);
            i.add(&[1.0, 0.0]);
            i
        };
        assert!(idx.search(&[0.0, 0.0], 1, None).is_empty());
    }

    #[test]
    fn cosine_zero_vector_never_matches() {
        let mut idx = FlatIndex::new(2, Metric::Cosine);
        idx.add(&[0.0, 0.0]);
        idx.add(&[1.0, 0.0]);
        let hits = idx.search(&[1.0, 0.0], 2, None);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 1);
    }

    #[test]
    fn update_changes_results() {
        let mut idx = unit_index();
        let before = idx.search(&[1.0, 2.0], 1, None);
        assert_eq!(before[0].id, 2); // [1,1] scores 3
        idx.update(1, &[0.0, 100.0]);
        let after = idx.search(&[1.0, 2.0], 1, None);
        assert_eq!(after[0].id, 1);
        assert_eq!(idx.vector(1), &[0.0, 100.0]);
    }

    #[test]
    fn score_all_matches_search_ordering() {
        let idx = unit_index();
        let scores = idx.score_all(&[2.0, 1.0]);
        let hits = idx.search(&[2.0, 1.0], 3, None);
        assert_eq!(scores.len(), 3);
        assert_eq!(hits[0].id as usize, 2);
        assert!(scores[2] >= scores[0] && scores[0] >= scores[1]);
    }

    #[test]
    fn add_batch() {
        let mut idx = FlatIndex::new(2, Metric::InnerProduct);
        idx.add_batch(&[1.0, 0.0, 0.0, 1.0]);
        assert_eq!(idx.len(), 2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dim_panics() {
        let mut idx = FlatIndex::new(3, Metric::InnerProduct);
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
    }
}
