//! Similarity metrics for graph search ([`crate::HnswIndex`]).
//!
//! The paper's user-based component ranks neighbors by cosine similarity
//! of user representations (Eq. 11) and the UI component ranks items by
//! inner product (Eq. 10). The exact user index ([`crate::FlatIndex`])
//! is cosine-only; the HNSW graph serves either. Scores are "larger is
//! better" for both metrics.

use sccf_tensor::mat::{dot, norm};

/// Vector similarity used by an index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Raw inner product — the UI retrieval score `m_u · q_i` (Eq. 10).
    InnerProduct,
    /// Cosine similarity — the neighbor score `cos(m_u, m_v)` (Eq. 11).
    Cosine,
}

impl Metric {
    /// Similarity between two vectors (higher = more similar).
    #[inline]
    pub fn score(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::InnerProduct => dot(a, b),
            Metric::Cosine => {
                let na = norm(a);
                let nb = norm(b);
                if na <= f32::EPSILON || nb <= f32::EPSILON {
                    0.0
                } else {
                    dot(a, b) / (na * nb)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_product() {
        assert_eq!(Metric::InnerProduct.score(&[1., 2.], &[3., 4.]), 11.0);
    }

    #[test]
    fn cosine_bounds_and_degenerate() {
        let s = Metric::Cosine.score(&[1., 0.], &[1., 0.]);
        assert!((s - 1.0).abs() < 1e-6);
        let o = Metric::Cosine.score(&[1., 0.], &[0., 1.]);
        assert!(o.abs() < 1e-6);
        assert_eq!(Metric::Cosine.score(&[0., 0.], &[1., 0.]), 0.0);
    }
}
