//! Runtime-dispatched x86-64 SIMD kernels with bit-identical scalar
//! fallbacks.
//!
//! The serving-path kernels ([`crate::mat::dot`], [`crate::mat::axpy`],
//! and the fused PQ table-lookup scan below) check for AVX2 once per
//! process (`is_x86_feature_detected!`) and take a hand-written
//! intrinsics path when available. Two rules keep the workspace's
//! pinned-equivalence discipline intact across machines:
//!
//! 1. **Same arithmetic, same order.** The AVX2 paths perform exactly
//!    the per-lane multiply-then-add sequence of the scalar kernels
//!    (one 256-bit register *is* the scalar kernel's eight accumulator
//!    lanes) and reduce with the same `((a0+a1)+(a2+a3))+((a4+a5)+(a6+a7))`
//!    tree — so the SIMD result is **bit-identical** to the scalar
//!    fallback, and every `BENCH_*.json` or snapshot produced on an
//!    AVX2 box replays exactly on one without it.
//! 2. **No FMA.** A fused multiply-add rounds once where `mul` + `add`
//!    round twice; using it would silently fork the float stream
//!    between the two paths. The kernels stick to `_mm256_mul_ps` +
//!    `_mm256_add_ps`.
//!
//! The unit tests pin rule 1 (`*_matches_scalar_bitwise`) on every
//! machine that has AVX2; on others they degrade to scalar-vs-scalar
//! and pass trivially.

/// Whether the AVX2 paths are live in this process. Detection runs once
/// and is cached; the result is stable for the process lifetime.
#[inline]
pub fn avx2_enabled() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::sync::atomic::{AtomicU8, Ordering};
        // 0 = unknown, 1 = enabled, 2 = disabled.
        static STATE: AtomicU8 = AtomicU8::new(0);
        match STATE.load(Ordering::Relaxed) {
            1 => true,
            2 => false,
            _ => {
                let enabled = std::arch::is_x86_feature_detected!("avx2");
                STATE.store(if enabled { 1 } else { 2 }, Ordering::Relaxed);
                enabled
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ------------------------------------------------------------------ dot

/// Scalar reference dot product: eight independent accumulator lanes
/// over `chunks_exact(8)` and the fixed reduction tree. This is the
/// arithmetic contract the AVX2 path reproduces bit-for-bit.
#[inline]
pub fn dot_scalar(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 8];
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    for (x, y) in (&mut ca).zip(&mut cb) {
        for l in 0..8 {
            acc[l] += x[l] * y[l];
        }
    }
    let mut s = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]));
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

/// Dot product with runtime AVX2 dispatch. Bit-identical to
/// [`dot_scalar`] on every input, AVX2 or not.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: `avx2_enabled` verified AVX2 support on this CPU, the
        // only precondition of `dot_avx2`.
        return unsafe { dot_avx2(a, b) };
    }
    dot_scalar(a, b)
}

/// The iteration structure of [`dot_scalar`] (zipped `chunks_exact(8)`,
/// then zipped remainders), so the two agree — and stay in bounds — on
/// every pair of slices, equal lengths or not.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2(a: &[f32], b: &[f32]) -> f32 {
    use std::arch::x86_64::*;
    debug_assert_eq!(a.len(), b.len());
    let mut ca = a.chunks_exact(8);
    let mut cb = b.chunks_exact(8);
    // One 256-bit accumulator = the scalar kernel's 8 lanes; mul + add
    // (not FMA) keeps the per-lane rounding identical to the scalar path.
    let mut acc = _mm256_setzero_ps();
    for (x, y) in (&mut ca).zip(&mut cb) {
        // SAFETY: `chunks_exact(8)` yields slices of exactly 8 `f32`s,
        // which is what each unaligned 256-bit load reads.
        let xv = _mm256_loadu_ps(x.as_ptr());
        let yv = _mm256_loadu_ps(y.as_ptr());
        acc = _mm256_add_ps(acc, _mm256_mul_ps(xv, yv));
    }
    let mut lanes = [0.0f32; 8];
    // SAFETY: the store writes 8 `f32`s into a local `[f32; 8]`.
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    // The exact reduction tree of the scalar kernel.
    let mut s = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for (x, y) in ca.remainder().iter().zip(cb.remainder()) {
        s += x * y;
    }
    s
}

// ----------------------------------------------------------------- axpy

/// Scalar reference `y += alpha * x`.
#[inline]
pub fn axpy_scalar(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y += alpha * x` with runtime AVX2 dispatch. Each element sees one
/// `mul` and one `add` in both paths, so results are bit-identical.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: `avx2_enabled` verified AVX2 support on this CPU, the
        // only precondition of `axpy_avx2`.
        unsafe { axpy_avx2(alpha, x, y) };
        return;
    }
    axpy_scalar(alpha, x, y);
}

/// Stays in bounds on every pair of slices: whole 8-lane chunks are
/// zipped, then the two remainders. With unequal lengths (a caller bug,
/// debug-asserted) which elements of `y` are updated is unspecified.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(alpha: f32, x: &[f32], y: &mut [f32]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(x.len(), y.len());
    let av = _mm256_set1_ps(alpha);
    let mut cx = x.chunks_exact(8);
    let mut cy = y.chunks_exact_mut(8);
    for (xc, yc) in (&mut cx).zip(&mut cy) {
        // SAFETY: `chunks_exact(8)` / `chunks_exact_mut(8)` yield slices
        // of exactly 8 `f32`s — what each unaligned 256-bit load and the
        // store touch; `xc` and `yc` cannot overlap (`&` vs `&mut`).
        let xv = _mm256_loadu_ps(xc.as_ptr());
        let yv = _mm256_loadu_ps(yc.as_ptr());
        let r = _mm256_add_ps(yv, _mm256_mul_ps(av, xv));
        _mm256_storeu_ps(yc.as_mut_ptr(), r);
    }
    for (yi, &xi) in cy.into_remainder().iter_mut().zip(cx.remainder()) {
        *yi += alpha * xi;
    }
}

// ------------------------------------------------- fused PQ table lookup

/// Scalar reference ADC accumulation for one code row:
/// `Σ_s lut[s·kk + codes[s]]`, subspaces in ascending order.
#[inline]
pub fn pq_adc_row_scalar(lut: &[f32], kk: usize, codes: &[u8]) -> f32 {
    let mut acc = 0.0f32;
    for (s, &c) in codes.iter().enumerate() {
        acc += lut[s * kk + c as usize];
    }
    acc
}

/// Fused PQ asymmetric-distance scan over a *gather list* of rows:
/// `out[j] = Σ_s lut[s·kk + codes[rows[j]·m + s]]`.
///
/// This is the inner loop of the tier's IVF-PQ cell scan: per row, `m`
/// table reads and adds. The AVX2 path scores eight rows at once, using
/// `_mm256_i32gather_ps` for the eight table reads of each subspace —
/// one gather replaces eight dependent scalar loads while the per-row
/// add order (ascending `s`) stays exactly the scalar order, so the
/// accumulated floats are bit-identical.
///
/// `out` is overwritten and resized to `rows.len()`; its capacity is
/// retained across calls (hot-path scratch discipline).
///
/// # Panics
/// On either path, if a row id points outside `codes` or a code indexes
/// past the end of `lut`.
pub fn pq_adc_gather(
    lut: &[f32],
    kk: usize,
    codes: &[u8],
    m: usize,
    rows: &[u32],
    out: &mut Vec<f32>,
) {
    assert!(m > 0, "pq scan needs at least one subspace");
    assert!(lut.len() >= m * kk, "lut too small for m×kk");
    assert!(
        lut.len() <= i32::MAX as usize,
        "lut too large for i32 lanes"
    );
    out.clear();
    out.resize(rows.len(), 0.0);
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: `avx2_enabled` verified AVX2 support; `out` was just
        // resized to `rows.len()` and `lut` fits i32 lane indices — the
        // two shape conditions of `pq_adc_gather_avx2`.
        unsafe { pq_adc_gather_avx2(lut, kk, codes, m, rows, out) };
        return;
    }
    for (o, &r) in out.iter_mut().zip(rows) {
        let row = &codes[r as usize * m..(r as usize + 1) * m];
        *o = pq_adc_row_scalar(lut, kk, row);
    }
}

/// # Safety
/// The CPU must support AVX2, `out.len() == rows.len()` and
/// `lut.len() <= i32::MAX`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pq_adc_gather_avx2(
    lut: &[f32],
    kk: usize,
    codes: &[u8],
    m: usize,
    rows: &[u32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    // SAFETY: `rows` and `codes` are read through checked indexing only.
    // The gather reads `lut[idx[l]]` for eight lanes: each `idx[l]` is
    // asserted `< lut.len()` right before it is stored (the check the
    // scalar path's `lut[..]` indexing performs) and fits an i32 by the
    // contract. The store writes lanes `base .. base + 8` with
    // `base + 8 <= rows.len()` (= `out.len()` by the contract); the tail
    // uses checked indexing.
    let blocks = rows.len() / 8;
    let mut idx = [0i32; 8];
    for blk in 0..blocks {
        let base = blk * 8;
        let mut acc = _mm256_setzero_ps();
        for s in 0..m {
            for (slot, &r) in idx.iter_mut().zip(&rows[base..base + 8]) {
                let i = s * kk + codes[r as usize * m + s] as usize;
                assert!(i < lut.len(), "pq code indexes past the lookup table");
                *slot = i as i32;
            }
            let iv = _mm256_loadu_si256(idx.as_ptr() as *const __m256i);
            // scale = 4: indices are in f32 elements.
            let g = _mm256_i32gather_ps::<4>(lut.as_ptr(), iv);
            acc = _mm256_add_ps(acc, g);
        }
        _mm256_storeu_ps(out.as_mut_ptr().add(base), acc);
    }
    for j in blocks * 8..rows.len() {
        let r = rows[j] as usize;
        out[j] = pq_adc_row_scalar(lut, kk, &codes[r * m..(r + 1) * m]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 1000) as f32 - 500.0)
                    * 0.0173
            })
            .collect()
    }

    #[test]
    fn dot_matches_scalar_bitwise() {
        // Lengths around the 8-lane boundary + a long one.
        for len in [0usize, 1, 7, 8, 9, 16, 17, 63, 64, 257] {
            let a = slab(len, 1);
            let b = slab(len, 2);
            assert_eq!(
                dot(&a, &b).to_bits(),
                dot_scalar(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn axpy_matches_scalar_bitwise() {
        for len in [0usize, 1, 7, 8, 9, 31, 32, 100] {
            let x = slab(len, 3);
            let mut y1 = slab(len, 4);
            let mut y2 = y1.clone();
            axpy(0.37, &x, &mut y1);
            axpy_scalar(0.37, &x, &mut y2);
            for (a, b) in y1.iter().zip(&y2) {
                assert_eq!(a.to_bits(), b.to_bits(), "len {len}");
            }
        }
    }

    #[test]
    fn pq_adc_matches_scalar_bitwise() {
        // Subspace counts, row counts around the 8-lane boundary and
        // codebook sizes; ids deliberately shuffled and repeated.
        for m in [1usize, 2, 3, 7, 8, 9, 16] {
            for n_rows in [0usize, 1, 7, 8, 9, 17] {
                for kk in [2usize, 16, 256] {
                    let n = 29usize;
                    let lut = slab(m * kk, 5 + (m * kk) as u64);
                    let codes: Vec<u8> = (0..n * m).map(|i| ((i * 31 + 7) % kk) as u8).collect();
                    let rows: Vec<u32> = (0..n as u32)
                        .rev()
                        .chain([3, 3, 11])
                        .cycle()
                        .skip(m)
                        .take(n_rows)
                        .collect();
                    let mut fast = Vec::new();
                    pq_adc_gather(&lut, kk, &codes, m, &rows, &mut fast);
                    assert_eq!(fast.len(), rows.len());
                    for (j, &r) in rows.iter().enumerate() {
                        let r = r as usize;
                        let want = pq_adc_row_scalar(&lut, kk, &codes[r * m..(r + 1) * m]);
                        assert_eq!(
                            fast[j].to_bits(),
                            want.to_bits(),
                            "m {m} rows {n_rows} kk {kk} row {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic]
    fn pq_adc_code_past_the_table_panics_on_both_paths() {
        // One full 8-row block so the AVX2 path takes the gather; code 5
        // with kk = 2, m = 1 indexes lut[5] of a 2-entry table.
        let lut = slab(2, 6);
        let codes = [0u8, 1, 0, 1, 5, 0, 1, 0];
        let rows: Vec<u32> = (0..8).collect();
        pq_adc_gather(&lut, 2, &codes, 1, &rows, &mut Vec::new());
    }

    #[test]
    fn adc_gather_reuses_capacity() {
        let lut = slab(8, 6);
        let codes: Vec<u8> = vec![0, 1, 2, 3];
        let rows = [0u32, 1, 2, 3];
        let mut out = Vec::with_capacity(64);
        let cap = out.capacity();
        pq_adc_gather(&lut, 2, &codes, 1, &rows, &mut out);
        assert_eq!(out.len(), 4);
        assert_eq!(out.capacity(), cap, "scan must not reallocate scratch");
    }

    #[test]
    fn detection_is_stable() {
        assert_eq!(avx2_enabled(), avx2_enabled());
    }
}
