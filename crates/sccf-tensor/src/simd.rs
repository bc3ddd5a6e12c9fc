//! Runtime-dispatched x86-64 SIMD kernels with bit-identical scalar
//! fallbacks.
//!
//! The serving-path kernels ([`crate::mat::dot`], [`crate::mat::axpy`])
//! check for AVX2 once per process (`is_x86_feature_detected!`) and take
//! a hand-written intrinsics path when available. Two rules keep the
//! workspace's pinned-equivalence discipline intact across machines:
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
//! ## The four `unsafe` sites
//!
//! Two `unsafe fn`s ([`dot`]'s and [`axpy`]'s AVX2 bodies) and the two
//! call sites that dispatch to them; nothing else in the workspace is
//! `unsafe` (`scripts/code_size.sh` gates that). Each pair has the
//! same two-part contract:
//!
//! * **Caller (the dispatch site).** The only precondition is that the
//!   CPU supports AVX2, established by [`avx2_enabled`] in the same
//!   `if`. Slice lengths, alignment and contents are *not*
//!   preconditions: any two slices are memory-safe arguments.
//! * **Callee (the `unsafe fn`).** Every pointer handed to an intrinsic
//!   comes from a `chunks_exact(8)` / `chunks_exact_mut(8)` item — a
//!   slice of exactly eight `f32`s — and each load/store touches
//!   exactly those 32 bytes through the unaligned (`loadu`/`storeu`)
//!   forms. Chunks are zipped, so the shorter operand bounds the loop;
//!   tails go through safe slice iteration. No pointer arithmetic, no
//!   alignment assumption, no read past either slice.
//!
//! Unequal lengths are a caller bug (`debug_assert`ed on both paths).
//! In a release build `dot` still agrees bit-for-bit with
//! [`dot_scalar`] on them (same zipped iteration), while for `axpy`
//! *which* elements of `y` are updated is unspecified — only that
//! nothing outside `y` is written.
//!
//! `tests/properties.rs` (`simd_*`) checks all of this differentially
//! over unaligned sub-slices, zero / odd / unequal lengths and
//! denormal-bearing inputs: `dot` and `axpy` bit-equal to their scalar
//! kernels (the reduction order is defined by rule 1), `matvec_into`
//! bit-equal to per-row `dot`, and the sequential-sum reference — whose
//! order differs from the 8-lane tree — within an error bound. On a
//! machine without AVX2 the differential degrades to scalar-vs-scalar
//! and passes trivially.

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
        // SAFETY: `avx2_enabled` just verified AVX2 support on this CPU,
        // the only precondition of `dot_avx2` (any lengths are in bounds).
        return unsafe { dot_avx2(a, b) };
    }
    dot_scalar(a, b)
}

/// The iteration structure of [`dot_scalar`] (zipped `chunks_exact(8)`,
/// then zipped remainders), so the two agree — and stay in bounds — on
/// every pair of slices, equal lengths or not.
///
/// # Safety
/// The CPU must support AVX2. Nothing is required of `a` and `b`: every
/// load reads one whole `chunks_exact(8)` item.
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
        // SAFETY: `avx2_enabled` just verified AVX2 support on this CPU,
        // the only precondition of `axpy_avx2` (any lengths are in bounds).
        unsafe { axpy_avx2(alpha, x, y) };
        return;
    }
    axpy_scalar(alpha, x, y);
}

/// Stays in bounds on every pair of slices: whole 8-lane chunks are
/// zipped, then the two remainders. With unequal lengths (a caller bug,
/// debug-asserted) which elements of `y` are updated is unspecified;
/// with equal lengths every element sees the scalar kernel's one `mul`
/// and one `add`.
///
/// # Safety
/// The CPU must support AVX2. Nothing is required of `x` and `y`: every
/// load and store touches one whole `chunks_exact(8)` /
/// `chunks_exact_mut(8)` item, and `&` vs `&mut` rules out overlap.
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
    fn detection_is_stable() {
        assert_eq!(avx2_enabled(), avx2_enabled());
    }
}
