//! Dense row-major `f32` matrix with the handful of BLAS-free kernels the
//! models need: GEMM in the three transpose layouts, axpy, elementwise maps.
//!
//! Everything in the workspace (embeddings, attention, the integrator MLP)
//! is expressed over 2-D matrices; a sequence is `(len × dim)`, a batch of
//! feature vectors is `(batch × dim)`. The matmul kernel uses the
//! cache-friendly i-k-j loop order so the inner loop streams over
//! contiguous rows of both output and right operand.

/// Dense row-major matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Mat {
    /// All-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Build from a row-major data vector. Panics if the length mismatches.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "data length {} != {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build a single-row matrix from a slice.
    pub fn row_vector(data: &[f32]) -> Self {
        Self::from_vec(1, data.len(), data.to_vec())
    }

    /// Stack rows (each of equal length) into a matrix.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        assert!(!rows.is_empty(), "from_rows needs at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    #[inline]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    #[inline]
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// `self @ other` — `(n×k)(k×m) → n×m`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols,
            other.rows,
            "matmul shape mismatch: {:?} x {:?}",
            self.shape(),
            other.shape()
        );
        let (n, k, m) = (self.rows, self.cols, other.cols);
        let mut out = Mat::zeros(n, m);
        for i in 0..n {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (p, &a_ip) in a_row.iter().enumerate().take(k) {
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = other.row(p);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b;
                }
            }
        }
        out
    }

    /// `self @ other^T` — `(n×k)(m×k)^T → n×m`. The inner loop is a dot
    /// product of two contiguous rows, which is the fastest layout for
    /// score matrices (`H @ E^T`) and attention (`Q @ K^T`).
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols,
            other.cols,
            "matmul_nt shape mismatch: {:?} x {:?}^T",
            self.shape(),
            other.shape()
        );
        let (n, m) = (self.rows, other.rows);
        let mut out = Mat::zeros(n, m);
        for i in 0..n {
            let a_row = self.row(i);
            let out_row = out.row_mut(i);
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, other.row(j));
            }
        }
        out
    }

    /// `self^T @ other` — `(k×n)^T(k×m) → n×m`.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.rows,
            other.rows,
            "matmul_tn shape mismatch: {:?}^T x {:?}",
            self.shape(),
            other.shape()
        );
        let (n, m) = (self.cols, other.cols);
        let mut out = Mat::zeros(n, m);
        for p in 0..self.rows {
            let a_row = self.row(p);
            let b_row = other.row(p);
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (o, &b) in out_row.iter_mut().zip(b_row) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// `self += other`.
    pub fn add_assign(&mut self, other: &Mat) {
        assert_eq!(self.shape(), other.shape());
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// `self += alpha * other` (axpy).
    pub fn scaled_add_assign(&mut self, alpha: f32, other: &Mat) {
        assert_eq!(self.shape(), other.shape());
        axpy(alpha, &other.data, &mut self.data);
    }

    /// Elementwise map into a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Mat {
        Mat {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// `self * scalar` into a new matrix.
    pub fn scale(&self, alpha: f32) -> Mat {
        self.map(|x| x * alpha)
    }

    /// Elementwise product into a new matrix.
    pub fn hadamard(&self, other: &Mat) -> Mat {
        assert_eq!(self.shape(), other.shape());
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| a * b)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|&x| x as f64).sum::<f64>() as f32
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        (self
            .data
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum::<f64>())
        .sqrt() as f32
    }

    /// True if any entry is NaN or infinite — used by training sanity checks.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

/// Dot product of two equal-length slices.
///
/// Runtime-dispatched: an explicit AVX2 path when the CPU has it, else
/// the eight-lane `chunks_exact(8)` scalar kernel. Both paths share the
/// exact per-lane arithmetic and reduction tree, so the result is
/// bit-identical either way — see [`crate::simd`].
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    crate::simd::dot(a, b)
}

/// `y += alpha * x` over equal-length slices — the slice-level axpy the
/// matrix ops and integrator feature assembly share. Runtime-dispatched
/// AVX2 with a bit-identical scalar fallback ([`crate::simd`]).
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    crate::simd::axpy(alpha, x, y)
}

/// `out[r] = m.row(r) · v` for every row — the Eq. 10 "score the whole
/// catalog for one user" kernel. Rows are processed in blocks of four so
/// the query vector is loaded once per block instead of once per row;
/// each block keeps four independent accumulator sets.
pub fn matvec_into(m: &Mat, v: &[f32], out: &mut [f32]) {
    assert_eq!(m.cols(), v.len(), "matvec dim mismatch");
    assert_eq!(m.rows(), out.len(), "matvec rows mismatch");
    let cols = m.cols();
    let data = m.data();
    let mut r = 0usize;
    // Four rows per block: the query chunk is loaded once and feeds four
    // independent 8-lane accumulator sets. Lane layout and the final
    // reduction tree mirror [`dot`] exactly, so each output is
    // bit-identical to `dot(m.row(r), v)` — the sparse/dense equivalence
    // tests rely on that.
    while r + 4 <= m.rows() {
        let base = r * cols;
        let rows: [&[f32]; 4] = [
            &data[base..base + cols],
            &data[base + cols..base + 2 * cols],
            &data[base + 2 * cols..base + 3 * cols],
            &data[base + 3 * cols..base + 4 * cols],
        ];
        let mut acc = [[0.0f32; 8]; 4];
        let chunks = cols / 8;
        for c in 0..chunks {
            let j = c * 8;
            let q = &v[j..j + 8];
            for (a, row) in acc.iter_mut().zip(rows) {
                let x = &row[j..j + 8];
                for l in 0..8 {
                    a[l] += x[l] * q[l];
                }
            }
        }
        for (k, a) in acc.iter().enumerate() {
            let mut s = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]));
            for j in chunks * 8..cols {
                s += rows[k][j] * v[j];
            }
            out[r + k] = s;
        }
        r += 4;
    }
    while r < m.rows() {
        out[r] = dot(m.row(r), v);
        r += 1;
    }
}

/// Euclidean norm of a slice.
#[inline]
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity of two vectors; 0 when either has zero norm.
#[inline]
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    let na = norm(a);
    let nb = norm(b);
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        0.0
    } else {
        dot(a, b) / (na * nb)
    }
}

/// Normalize a vector to unit length in place; leaves zero vectors untouched.
pub fn normalize(a: &mut [f32]) {
    let n = norm(a);
    if n > f32::EPSILON {
        for x in a.iter_mut() {
            *x /= n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize, v: &[f32]) -> Mat {
        Mat::from_vec(rows, cols, v.to_vec())
    }

    #[test]
    fn matmul_hand_checked() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 2, &[7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let a = m(2, 3, &[1., -2., 3., 0.5, 5., -6.]);
        let b = m(4, 3, &[1., 0., 2., -1., 3., 1., 0., 0., 1., 2., 2., 2.]);
        let c1 = a.matmul_nt(&b);
        let c2 = a.matmul(&b.transpose());
        assert_eq!(c1.shape(), (2, 4));
        for (x, y) in c1.data().iter().zip(c2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let a = m(3, 2, &[1., 2., 3., 4., 5., 6.]);
        let b = m(3, 4, &(0..12).map(|x| x as f32).collect::<Vec<_>>());
        let c1 = a.matmul_tn(&b);
        let c2 = a.transpose().matmul(&b);
        assert_eq!(c1.shape(), (2, 4));
        for (x, y) in c1.data().iter().zip(c2.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1., 2., 3., 4., 5., 6.]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn axpy_and_hadamard() {
        let mut a = m(1, 3, &[1., 2., 3.]);
        let b = m(1, 3, &[10., 20., 30.]);
        a.scaled_add_assign(0.1, &b);
        assert_eq!(a.data(), &[2., 4., 6.]);
        let h = a.hadamard(&b);
        assert_eq!(h.data(), &[20., 80., 180.]);
    }

    #[test]
    fn matvec_matches_dot_bitwise() {
        // 9 rows (exercises the 4-row blocks + tail), 19 cols (exercises
        // the 8-lane chunks + remainder).
        let (rows, cols) = (9usize, 19usize);
        let m = Mat::from_vec(
            rows,
            cols,
            (0..rows * cols)
                .map(|x| ((x * 37 % 97) as f32 - 48.0) * 0.173)
                .collect(),
        );
        let v: Vec<f32> = (0..cols)
            .map(|x| ((x * 13 % 29) as f32 - 14.0) * 0.311)
            .collect();
        let mut out = vec![0.0f32; rows];
        matvec_into(&m, &v, &mut out);
        for (r, &o) in out.iter().enumerate() {
            assert_eq!(
                o.to_bits(),
                dot(m.row(r), &v).to_bits(),
                "row {r} diverges from the dot kernel"
            );
        }
    }

    #[test]
    fn axpy_matches_reference() {
        let x = [1.0f32, -2.0, 3.0, 0.5];
        let mut y = [10.0f32, 20.0, 30.0, 40.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 19.0, 31.5, 40.25]);
    }

    #[test]
    fn dot_handles_remainders() {
        let a: Vec<f32> = (0..7).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..7).map(|x| (x * 2) as f32).collect();
        let expect: f32 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!((dot(&a, &b) - expect).abs() < 1e-5);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn cosine_properties() {
        let a = [1.0f32, 0.0];
        let b = [0.0f32, 2.0];
        let c = [3.0f32, 0.0];
        assert!((cosine(&a, &b)).abs() < 1e-6);
        assert!((cosine(&a, &c) - 1.0).abs() < 1e-6);
        assert_eq!(cosine(&a, &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn normalize_unit_norm() {
        let mut v = [3.0f32, 4.0];
        normalize(&mut v);
        assert!((norm(&v) - 1.0).abs() < 1e-6);
        let mut z = [0.0f32, 0.0];
        normalize(&mut z);
        assert_eq!(z, [0.0, 0.0]);
    }

    #[test]
    fn row_views() {
        let mut a = m(2, 2, &[1., 2., 3., 4.]);
        assert_eq!(a.row(1), &[3., 4.]);
        a.row_mut(0)[1] = 9.0;
        assert_eq!(a.get(0, 1), 9.0);
    }

    #[test]
    fn sum_and_norms() {
        let a = m(2, 2, &[1., -1., 2., -2.]);
        assert_eq!(a.sum(), 0.0);
        assert!((a.frobenius_norm() - (10.0f32).sqrt()).abs() < 1e-6);
        assert!(!a.has_non_finite());
        let b = m(1, 1, &[f32::NAN]);
        assert!(b.has_non_finite());
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn from_rows_ragged_panics() {
        let _ = Mat::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }
}
