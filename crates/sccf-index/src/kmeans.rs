#![allow(clippy::needless_range_loop)] // index loops mirror the textbook algorithm
//! Lloyd's k-means — the coarse quantizer and the PQ codebook trainer
//! of the IVF-PQ tier mode ([`crate::tier`]).
//!
//! k-means++ seeding, fixed iteration budget, empty-cluster repair by
//! stealing the farthest point from the biggest cluster. Operates on
//! row-major `n × d` slabs to avoid any per-point allocation in the
//! assignment loop.

use rand::rngs::StdRng;
use rand::Rng;

/// Result of a k-means run.
#[derive(Debug, Clone)]
pub struct KMeans {
    pub k: usize,
    pub dim: usize,
    /// `k × dim` row-major centroids.
    pub centroids: Vec<f32>,
    /// Cluster id for every training point.
    pub assignment: Vec<u32>,
}

impl KMeans {
    /// Centroid `c` as a slice.
    pub fn centroid(&self, c: usize) -> &[f32] {
        &self.centroids[c * self.dim..(c + 1) * self.dim]
    }

    /// Nearest centroid (by L2) to `v`.
    pub fn assign(&self, v: &[f32]) -> u32 {
        nearest(&self.centroids, self.k, self.dim, v).0
    }

    /// The `nprobe` nearest centroids to `v`, closest first, into `out`.
    /// `scratch` and `out` are cleared and refilled, keeping their
    /// capacity across calls so the per-query cell ranking allocates
    /// nothing at steady state.
    pub fn assign_multi_into(
        &self,
        v: &[f32],
        nprobe: usize,
        scratch: &mut Vec<(f32, u32)>,
        out: &mut Vec<u32>,
    ) {
        scratch.clear();
        scratch.extend((0..self.k).map(|c| (l2(self.centroid(c), v), c as u32)));
        scratch.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        scratch.truncate(nprobe.max(1));
        out.clear();
        out.extend(scratch.iter().map(|&(_, c)| c));
    }
}

#[inline]
fn l2(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

fn nearest(centroids: &[f32], k: usize, dim: usize, v: &[f32]) -> (u32, f32) {
    let mut best = (0u32, f32::INFINITY);
    for c in 0..k {
        let d = l2(&centroids[c * dim..(c + 1) * dim], v);
        if d < best.1 {
            best = (c as u32, d);
        }
    }
    best
}

/// Run k-means from an explicit `u64` seed.
///
/// The seed fully determines the k-means++ draws, so two runs over the
/// same slab with the same seed produce bit-identical centroids and
/// assignments — the property the frozen-tier snapshot pin relies on:
/// an IVF/PQ tier rebuilt from the same frozen vectors (seed carried in
/// the snapshot) must round-trip exactly.
pub fn kmeans_seeded(data: &[f32], dim: usize, k: usize, iters: usize, seed: u64) -> KMeans {
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    kmeans(data, dim, k, iters, &mut rng)
}

/// Run k-means over `n` points in a row-major `data` slab.
fn kmeans(data: &[f32], dim: usize, k: usize, iters: usize, rng: &mut StdRng) -> KMeans {
    assert!(dim > 0 && data.len().is_multiple_of(dim), "bad slab shape");
    let n = data.len() / dim;
    assert!(n > 0, "kmeans needs at least one point");
    let k = k.min(n);
    let point = |i: usize| &data[i * dim..(i + 1) * dim];

    // --- k-means++ seeding ---
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.gen_range(0..n);
    centroids.extend_from_slice(point(first));
    let mut d2: Vec<f32> = (0..n).map(|i| l2(point(i), point(first))).collect();
    while centroids.len() / dim < k {
        let total: f64 = d2.iter().map(|&x| x as f64).sum();
        let chosen = if total <= 1e-12 {
            rng.gen_range(0..n)
        } else {
            let mut x = rng.gen::<f64>() * total;
            let mut pick = n - 1;
            for (i, &w) in d2.iter().enumerate() {
                x -= w as f64;
                if x <= 0.0 {
                    pick = i;
                    break;
                }
            }
            pick
        };
        centroids.extend_from_slice(point(chosen));
        let c = &centroids[centroids.len() - dim..];
        for (i, slot) in d2.iter_mut().enumerate() {
            *slot = slot.min(l2(point(i), c));
        }
    }

    // --- Lloyd iterations ---
    let mut assignment = vec![0u32; n];
    for _ in 0..iters {
        let mut changed = false;
        for i in 0..n {
            let (c, _) = nearest(&centroids, k, dim, point(i));
            if assignment[i] != c {
                assignment[i] = c;
                changed = true;
            }
        }
        // recompute centroids
        let mut sums = vec![0.0f32; k * dim];
        let mut counts = vec![0u32; k];
        for i in 0..n {
            let c = assignment[i] as usize;
            counts[c] += 1;
            for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(point(i)) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // empty cluster: re-seed at the point farthest from its
                // current centroid in the largest cluster
                let big = (0..k).max_by_key(|&j| counts[j]).unwrap_or(0);
                let far = (0..n)
                    .filter(|&i| assignment[i] == big as u32)
                    .max_by(|&a, &b| {
                        l2(point(a), &centroids[big * dim..(big + 1) * dim])
                            .total_cmp(&l2(point(b), &centroids[big * dim..(big + 1) * dim]))
                    });
                if let Some(i) = far {
                    sums[c * dim..(c + 1) * dim].copy_from_slice(point(i));
                    counts[c] = 1;
                }
            }
        }
        for c in 0..k {
            let cnt = counts[c].max(1) as f32;
            for (dst, &s) in centroids[c * dim..(c + 1) * dim]
                .iter_mut()
                .zip(&sums[c * dim..(c + 1) * dim])
            {
                *dst = s / cnt;
            }
        }
        if !changed {
            break;
        }
    }
    // final assignment against the final centroids
    for i in 0..n {
        assignment[i] = nearest(&centroids, k, dim, point(i)).0;
    }
    KMeans {
        k,
        dim,
        centroids,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn two_blobs(n_per: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut data = Vec::new();
        for _ in 0..n_per {
            data.push(0.0 + rng.gen::<f32>() * 0.1);
            data.push(0.0 + rng.gen::<f32>() * 0.1);
        }
        for _ in 0..n_per {
            data.push(10.0 + rng.gen::<f32>() * 0.1);
            data.push(10.0 + rng.gen::<f32>() * 0.1);
        }
        data
    }

    #[test]
    fn separates_two_blobs() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = two_blobs(50, &mut rng);
        let km = kmeans(&data, 2, 2, 20, &mut rng);
        // points 0..50 in one cluster, 50..100 in the other
        let c0 = km.assignment[0];
        assert!(km.assignment[..50].iter().all(|&c| c == c0));
        assert!(km.assignment[50..].iter().all(|&c| c != c0));
    }

    #[test]
    fn k_capped_at_n() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = vec![0.0, 0.0, 1.0, 1.0];
        let km = kmeans(&data, 2, 10, 5, &mut rng);
        assert_eq!(km.k, 2);
    }

    #[test]
    fn assign_matches_training_assignment() {
        let mut rng = StdRng::seed_from_u64(3);
        let data = two_blobs(30, &mut rng);
        let km = kmeans(&data, 2, 2, 20, &mut rng);
        for i in 0..60 {
            let v = &data[i * 2..(i + 1) * 2];
            assert_eq!(km.assign(v), km.assignment[i]);
        }
    }

    #[test]
    fn identical_points_dont_crash() {
        let mut rng = StdRng::seed_from_u64(5);
        let data = vec![1.0f32; 20]; // 10 identical 2-d points
        let km = kmeans(&data, 2, 3, 10, &mut rng);
        assert_eq!(km.assignment.len(), 10);
    }

    #[test]
    fn seeded_runs_are_bit_identical() {
        let mut rng = StdRng::seed_from_u64(6);
        let data = two_blobs(40, &mut rng);
        let a = kmeans_seeded(&data, 2, 4, 15, 1234);
        let b = kmeans_seeded(&data, 2, 4, 15, 1234);
        assert_eq!(a.assignment, b.assignment);
        for (x, y) in a.centroids.iter().zip(&b.centroids) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let c = kmeans_seeded(&data, 2, 4, 15, 1235);
        // different seed → different k-means++ draws (not a correctness
        // requirement, but if this ever fails the seed isn't plumbed)
        assert!(a.centroids != c.centroids || a.assignment != c.assignment);
    }

    #[test]
    fn assign_multi_into_orders_by_distance_and_reuses_buffers() {
        let mut rng = StdRng::seed_from_u64(7);
        let data = two_blobs(30, &mut rng);
        let km = kmeans(&data, 2, 2, 20, &mut rng);
        let mut scratch = Vec::with_capacity(16);
        let mut out = Vec::with_capacity(16);
        let (sc, oc) = (scratch.capacity(), out.capacity());
        km.assign_multi_into(&[0.0, 0.0], 2, &mut scratch, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], km.assign(&[0.0, 0.0]));
        assert_ne!(out[0], out[1]);
        assert_eq!(scratch.capacity(), sc);
        assert_eq!(out.capacity(), oc);
    }
}
