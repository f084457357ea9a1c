//! x86-64 kernel bodies: AVX2 (4 `f64` lanes) and SSE2 (2 lanes; the
//! architectural baseline, so these are plain safe functions).
//!
//! Every body performs the same per-element operations in the same order as
//! its `*_ref` reference in the parent module — no FMA, no reassociation —
//! except the two documented 1e-9 reductions (`fir_complex_dot`,
//! `envelope_charge`), which split the sum across lane accumulators.
//!
//! Safety: all pointer arithmetic is bounded by the slice-length assertions
//! in the parent module's safe wrappers; loads and stores never cross
//! `len()`. `Complex` is `repr(C)` (`re`, `im`), so a `[Complex]` slice is
//! loaded as interleaved `f64` pairs.

use super::{conv1d_clamped_range, median3_merge_range, median3_sort_range};
use crate::complex::Complex;
use std::arch::x86_64::{
    __m128d, __m256d, __m256i, _mm256_add_pd, _mm256_addsub_pd, _mm256_and_pd, _mm256_andnot_pd,
    _mm256_blendv_epi8, _mm256_castpd128_pd256, _mm256_castpd256_pd128, _mm256_cmp_pd,
    _mm256_cmpgt_epi64, _mm256_extractf128_pd, _mm256_loadu_pd, _mm256_loadu_si256,
    _mm256_max_pd, _mm256_min_pd, _mm256_movedup_pd, _mm256_mul_pd, _mm256_permute2f128_pd,
    _mm256_permute4x64_pd, _mm256_permute_pd, _mm256_set1_pd, _mm256_set_pd, _mm256_setzero_pd,
    _mm256_setzero_si256, _mm256_srli_epi64, _mm256_storeu_pd, _mm256_storeu_si256,
    _mm256_sub_pd, _mm256_xor_pd, _mm256_xor_si256, _mm_add_pd, _mm_and_pd, _mm_andnot_pd,
    _mm_cmpge_pd, _mm_cmplt_pd, _mm_cvtsd_f64, _mm_loadu_pd, _mm_max_pd, _mm_min_pd, _mm_mul_pd,
    _mm_set1_pd, _mm_set_pd, _mm_setzero_pd, _mm_shuffle_pd, _mm_storeu_pd, _mm_sub_pd,
    _mm_unpackhi_pd, _mm_unpacklo_pd, _mm_xor_pd, _CMP_GE_OQ, _CMP_LT_OQ,
};

/// `_CMP_*` predicates used with `_mm256_cmp_pd` (ordered, quiet: NaN
/// compares false, exactly like the scalar `<` / `>=`).
const LT: i32 = _CMP_LT_OQ;
const GE: i32 = _CMP_GE_OQ;

#[inline]
fn f64_ptr(s: &[Complex]) -> *const f64 {
    s.as_ptr().cast::<f64>()
}

#[inline]
fn f64_ptr_mut(s: &mut [Complex]) -> *mut f64 {
    s.as_mut_ptr().cast::<f64>()
}

// ---------------------------------------------------------------------------
// Complex multiply building blocks
// ---------------------------------------------------------------------------

/// Complex product of two packed pairs, matching `Complex::mul` exactly:
/// `(ar·br − ai·bi, ar·bi + ai·br)` per 128-bit lane, no FMA.
#[inline]
#[target_feature(enable = "avx2")]
fn cmul_avx2(a: __m256d, b: __m256d) -> __m256d {
    let ar = _mm256_movedup_pd(a); // [ar0, ar0, ar1, ar1]
    let ai = _mm256_permute_pd(a, 0b1111); // [ai0, ai0, ai1, ai1]
    let bswap = _mm256_permute_pd(b, 0b0101); // [bi0, br0, bi1, br1]
    // addsub: even lanes subtract, odd lanes add — exactly the scalar
    // (ar·br − ai·bi, ar·bi + ai·br) with one rounding per operation.
    _mm256_addsub_pd(_mm256_mul_pd(ar, b), _mm256_mul_pd(ai, bswap))
}

/// Complex product of one packed pair (SSE2 has no `addsub`: negate the
/// low lane of the cross product — an exact sign flip — and add, which is
/// bitwise `a − b` in IEEE 754).
#[inline]
#[target_feature(enable = "sse2")]
fn cmul_sse2(a: __m128d, b: __m128d) -> __m128d {
    let ar = _mm_unpacklo_pd(a, a);
    let ai = _mm_unpackhi_pd(a, a);
    let bswap = _mm_shuffle_pd(b, b, 0b01);
    let p2 = _mm_xor_pd(_mm_mul_pd(ai, bswap), _mm_set_pd(0.0, -0.0));
    _mm_add_pd(_mm_mul_pd(ar, b), p2)
}

/// Sign mask that conjugates packed complex pairs (flips `im` lanes).
#[inline]
#[target_feature(enable = "avx2")]
fn conj_mask_avx2() -> __m256d {
    _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
}

// ---------------------------------------------------------------------------
// Elementwise maps
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2")]
pub(super) fn mul_into_avx2(dst: &mut [f64], a: &[f64], b: &[f64]) {
    let n = dst.len();
    let (dp, ap, bp) = (dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == dst.len() == a.len() == b.len().
        unsafe {
            let va = _mm256_loadu_pd(ap.add(i));
            let vb = _mm256_loadu_pd(bp.add(i));
            _mm256_storeu_pd(dp.add(i), _mm256_mul_pd(va, vb));
        }
        i += 4;
    }
    while i < n {
        dst[i] = a[i] * b[i];
        i += 1;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn mul_into_sse2(dst: &mut [f64], a: &[f64], b: &[f64]) {
    let n = dst.len();
    let (dp, ap, bp) = (dst.as_mut_ptr(), a.as_ptr(), b.as_ptr());
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == dst.len() == a.len() == b.len().
        unsafe {
            let va = _mm_loadu_pd(ap.add(i));
            let vb = _mm_loadu_pd(bp.add(i));
            _mm_storeu_pd(dp.add(i), _mm_mul_pd(va, vb));
        }
        i += 2;
    }
    if i < n {
        dst[i] = a[i] * b[i];
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn scale_complex_into_avx2(dst: &mut [Complex], src: &[Complex], w: &[f64]) {
    let n = dst.len();
    let (dp, sp, wp) = (f64_ptr_mut(dst), f64_ptr(src), w.as_ptr());
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: complex i+1 ends at f64 offset 2i+4 <= 2n.
        unsafe {
            let z = _mm256_loadu_pd(sp.add(2 * i));
            let wv = _mm_loadu_pd(wp.add(i));
            // [w0, w0, w1, w1]
            let wd = _mm256_permute4x64_pd(_mm256_castpd128_pd256(wv), 0b0101_0000);
            _mm256_storeu_pd(dp.add(2 * i), _mm256_mul_pd(z, wd));
        }
        i += 2;
    }
    if i < n {
        dst[i] = src[i].scale(w[i]);
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn scale_complex_into_sse2(dst: &mut [Complex], src: &[Complex], w: &[f64]) {
    let n = dst.len();
    let (dp, sp) = (f64_ptr_mut(dst), f64_ptr(src));
    for i in 0..n {
        // SAFETY: complex i spans f64 offsets [2i, 2i+2) <= 2n.
        unsafe {
            let z = _mm_loadu_pd(sp.add(2 * i));
            let wd = _mm_set1_pd(w[i]);
            _mm_storeu_pd(dp.add(2 * i), _mm_mul_pd(z, wd));
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn subtract_clamp_avx2(dst: &mut [f64], sub: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sv = _mm256_set1_pd(sub);
    let zero = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe {
            let v = _mm256_loadu_pd(dp.add(i));
            _mm256_storeu_pd(dp.add(i), _mm256_max_pd(_mm256_sub_pd(v, sv), zero));
        }
        i += 4;
    }
    for v in dst.iter_mut().skip(i) {
        *v = (*v - sub).max(0.0);
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn subtract_clamp_sse2(dst: &mut [f64], sub: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let sv = _mm_set1_pd(sub);
    let zero = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = _mm_loadu_pd(dp.add(i));
            _mm_storeu_pd(dp.add(i), _mm_max_pd(_mm_sub_pd(v, sv), zero));
        }
        i += 2;
    }
    for v in dst.iter_mut().skip(i) {
        *v = (*v - sub).max(0.0);
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn subtract_clamp_bg_avx2(dst: &mut [f64], bg: &[f64]) {
    let n = dst.len();
    let (dp, bp) = (dst.as_mut_ptr(), bg.as_ptr());
    let zero = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == dst.len() == bg.len().
        unsafe {
            let v = _mm256_loadu_pd(dp.add(i));
            let b = _mm256_loadu_pd(bp.add(i));
            _mm256_storeu_pd(dp.add(i), _mm256_max_pd(_mm256_sub_pd(v, b), zero));
        }
        i += 4;
    }
    while i < n {
        dst[i] = (dst[i] - bg[i]).max(0.0);
        i += 1;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn subtract_clamp_bg_sse2(dst: &mut [f64], bg: &[f64]) {
    let n = dst.len();
    let (dp, bp) = (dst.as_mut_ptr(), bg.as_ptr());
    let zero = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == dst.len() == bg.len().
        unsafe {
            let v = _mm_loadu_pd(dp.add(i));
            let b = _mm_loadu_pd(bp.add(i));
            _mm_storeu_pd(dp.add(i), _mm_max_pd(_mm_sub_pd(v, b), zero));
        }
        i += 2;
    }
    if i < n {
        dst[i] = (dst[i] - bg[i]).max(0.0);
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn threshold_zero_avx2(dst: &mut [f64], alpha: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let av = _mm256_set1_pd(alpha);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe {
            let v = _mm256_loadu_pd(dp.add(i));
            let below = _mm256_cmp_pd::<LT>(v, av);
            _mm256_storeu_pd(dp.add(i), _mm256_andnot_pd(below, v));
        }
        i += 4;
    }
    for v in dst.iter_mut().skip(i) {
        if *v < alpha {
            *v = 0.0;
        }
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn threshold_zero_sse2(dst: &mut [f64], alpha: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let av = _mm_set1_pd(alpha);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = _mm_loadu_pd(dp.add(i));
            let below = _mm_cmplt_pd(v, av);
            _mm_storeu_pd(dp.add(i), _mm_andnot_pd(below, v));
        }
        i += 2;
    }
    for v in dst.iter_mut().skip(i) {
        if *v < alpha {
            *v = 0.0;
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn binarize_avx2(dst: &mut [f64], t: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let tv = _mm256_set1_pd(t);
    let one = _mm256_set1_pd(1.0);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe {
            let v = _mm256_loadu_pd(dp.add(i));
            let at_or_above = _mm256_cmp_pd::<GE>(v, tv);
            _mm256_storeu_pd(dp.add(i), _mm256_and_pd(at_or_above, one));
        }
        i += 4;
    }
    for v in dst.iter_mut().skip(i) {
        *v = if *v >= t { 1.0 } else { 0.0 };
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn binarize_sse2(dst: &mut [f64], t: f64) {
    let n = dst.len();
    let dp = dst.as_mut_ptr();
    let tv = _mm_set1_pd(t);
    let one = _mm_set1_pd(1.0);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = _mm_loadu_pd(dp.add(i));
            let at_or_above = _mm_cmpge_pd(v, tv);
            _mm_storeu_pd(dp.add(i), _mm_and_pd(at_or_above, one));
        }
        i += 2;
    }
    for v in dst.iter_mut().skip(i) {
        *v = if *v >= t { 1.0 } else { 0.0 };
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn abs_diff_broadcast_into_avx2(out: &mut [f64], x: f64, b: &[f64]) {
    let n = out.len();
    let (op, bp) = (out.as_mut_ptr(), b.as_ptr());
    let xv = _mm256_set1_pd(x);
    let absmask = _mm256_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == out.len() == b.len().
        unsafe {
            let d = _mm256_sub_pd(xv, _mm256_loadu_pd(bp.add(i)));
            _mm256_storeu_pd(op.add(i), _mm256_and_pd(d, absmask));
        }
        i += 4;
    }
    while i < n {
        out[i] = (x - b[i]).abs();
        i += 1;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn abs_diff_broadcast_into_sse2(out: &mut [f64], x: f64, b: &[f64]) {
    let n = out.len();
    let (op, bp) = (out.as_mut_ptr(), b.as_ptr());
    let xv = _mm_set1_pd(x);
    let absmask = _mm_set1_pd(f64::from_bits(0x7fff_ffff_ffff_ffff));
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == out.len() == b.len().
        unsafe {
            let d = _mm_sub_pd(xv, _mm_loadu_pd(bp.add(i)));
            _mm_storeu_pd(op.add(i), _mm_and_pd(d, absmask));
        }
        i += 2;
    }
    if i < n {
        out[i] = (x - b[i]).abs();
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn axpy_avx2(acc: &mut [f64], src: &[f64], w: f64) {
    let n = acc.len();
    let (ap, sp) = (acc.as_mut_ptr(), src.as_ptr());
    let wv = _mm256_set1_pd(w);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n == acc.len() == src.len().
        unsafe {
            let a = _mm256_loadu_pd(ap.add(i));
            let s = _mm256_loadu_pd(sp.add(i));
            _mm256_storeu_pd(ap.add(i), _mm256_add_pd(a, _mm256_mul_pd(wv, s)));
        }
        i += 4;
    }
    while i < n {
        acc[i] += w * src[i];
        i += 1;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn axpy_sse2(acc: &mut [f64], src: &[f64], w: f64) {
    let n = acc.len();
    let (ap, sp) = (acc.as_mut_ptr(), src.as_ptr());
    let wv = _mm_set1_pd(w);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n == acc.len() == src.len().
        unsafe {
            let a = _mm_loadu_pd(ap.add(i));
            let s = _mm_loadu_pd(sp.add(i));
            _mm_storeu_pd(ap.add(i), _mm_add_pd(a, _mm_mul_pd(wv, s)));
        }
        i += 2;
    }
    if i < n {
        acc[i] += w * src[i];
    }
}

// ---------------------------------------------------------------------------
// Structured passes
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2")]
pub(super) fn butterfly_pass_avx2(
    u: &mut [Complex],
    v: &mut [Complex],
    tw: &[Complex],
    inverse: bool,
) {
    let n = u.len();
    let (up, vp, tp) = (f64_ptr_mut(u), f64_ptr_mut(v), f64_ptr(tw));
    let conj = conj_mask_avx2();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: complexes [i, i+2) span f64 offsets [2i, 2i+4) <= 2n in
        // all three buffers (equal lengths asserted by the wrapper).
        unsafe {
            let mut w = _mm256_loadu_pd(tp.add(2 * i));
            if inverse {
                w = _mm256_xor_pd(w, conj);
            }
            let b = _mm256_loadu_pd(vp.add(2 * i));
            let a = _mm256_loadu_pd(up.add(2 * i));
            let t = cmul_avx2(w, b);
            _mm256_storeu_pd(up.add(2 * i), _mm256_add_pd(a, t));
            _mm256_storeu_pd(vp.add(2 * i), _mm256_sub_pd(a, t));
        }
        i += 2;
    }
    if i < n {
        let w = if inverse { tw[i].conj() } else { tw[i] };
        let t = w * v[i];
        let a = u[i];
        u[i] = a + t;
        v[i] = a - t;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn butterfly_pass_sse2(
    u: &mut [Complex],
    v: &mut [Complex],
    tw: &[Complex],
    inverse: bool,
) {
    let n = u.len();
    let (up, vp, tp) = (f64_ptr_mut(u), f64_ptr_mut(v), f64_ptr(tw));
    let conj = _mm_set_pd(-0.0, 0.0);
    for i in 0..n {
        // SAFETY: complex i spans f64 offsets [2i, 2i+2) <= 2n in all three
        // buffers (equal lengths asserted by the wrapper).
        unsafe {
            let mut w = _mm_loadu_pd(tp.add(2 * i));
            if inverse {
                w = _mm_xor_pd(w, conj);
            }
            let b = _mm_loadu_pd(vp.add(2 * i));
            let a = _mm_loadu_pd(up.add(2 * i));
            let t = cmul_sse2(w, b);
            _mm_storeu_pd(up.add(2 * i), _mm_add_pd(a, t));
            _mm_storeu_pd(vp.add(2 * i), _mm_sub_pd(a, t));
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn realfft_split_avx2(out: &mut [Complex], packed: &[Complex], tw: &[Complex]) {
    let m = packed.len();
    let (op, pp, tp) = (f64_ptr_mut(out), f64_ptr(packed), f64_ptr(tw));
    let conj = conj_mask_avx2();
    let halfv = _mm256_set1_pd(0.5);
    // [0.5, −0.5] per complex: odd_k = (diff.im · 0.5, diff.re · −0.5),
    // bitwise equal to the reference's (diff.im · 0.5, −(diff.re · 0.5)).
    let half_neghalf = _mm256_set_pd(-0.5, 0.5, -0.5, 0.5);
    let mut k = 1;
    while k + 2 <= m {
        // SAFETY: reads packed[k..k+2] and packed[m−k−1..m−k+1] (both in
        // range for 1 <= k <= m−2), tw[k..k+2], writes out[k..k+2]; the
        // wrapper asserts out.len() >= m and tw.len() >= m.
        unsafe {
            let zk = _mm256_loadu_pd(pp.add(2 * k));
            // [packed[m−k−1], packed[m−k]] → swap halves → [packed[m−k], packed[m−k−1]]
            let zc_raw = _mm256_loadu_pd(pp.add(2 * (m - k - 1)));
            let zc = _mm256_xor_pd(_mm256_permute2f128_pd(zc_raw, zc_raw, 0x01), conj);
            let even = _mm256_mul_pd(_mm256_add_pd(zk, zc), halfv);
            let diff = _mm256_sub_pd(zk, zc);
            // [diff.im, diff.re] per complex, then scale by [0.5, −0.5].
            let odd = _mm256_mul_pd(_mm256_permute_pd(diff, 0b0101), half_neghalf);
            let w = _mm256_loadu_pd(tp.add(2 * k));
            _mm256_storeu_pd(op.add(2 * k), _mm256_add_pd(even, cmul_avx2(w, odd)));
        }
        k += 2;
    }
    while k < m {
        let zk = packed[k];
        let zc = packed[m - k].conj();
        let even = (zk + zc).scale(0.5);
        let diff = zk - zc;
        let odd = Complex::new(diff.im * 0.5, -diff.re * 0.5);
        out[k] = even + tw[k] * odd;
        k += 1;
    }
}

#[target_feature(enable = "sse2")]
pub(super) fn realfft_split_sse2(out: &mut [Complex], packed: &[Complex], tw: &[Complex]) {
    let m = packed.len();
    let (op, pp, tp) = (f64_ptr_mut(out), f64_ptr(packed), f64_ptr(tw));
    let conj = _mm_set_pd(-0.0, 0.0);
    let halfv = _mm_set1_pd(0.5);
    let half_neghalf = _mm_set_pd(-0.5, 0.5);
    for k in 1..m {
        // SAFETY: reads packed[k], packed[m−k], tw[k], writes out[k]; all in
        // range for 1 <= k < m given the wrapper's length assertions.
        unsafe {
            let zk = _mm_loadu_pd(pp.add(2 * k));
            let zc = _mm_xor_pd(_mm_loadu_pd(pp.add(2 * (m - k))), conj);
            let even = _mm_mul_pd(_mm_add_pd(zk, zc), halfv);
            let diff = _mm_sub_pd(zk, zc);
            let odd = _mm_mul_pd(_mm_shuffle_pd(diff, diff, 0b01), half_neghalf);
            let w = _mm_loadu_pd(tp.add(2 * k));
            _mm_storeu_pd(op.add(2 * k), _mm_add_pd(even, cmul_sse2(w, odd)));
        }
    }
}

#[target_feature(enable = "avx2")]
pub(super) fn conv1d_clamped_into_avx2(out: &mut [f64], src: &[f64], taps: &[f64]) {
    let n = src.len();
    let t = taps.len();
    let half = t / 2;
    if n < t {
        return conv1d_clamped_range(out, src, taps, 0, n);
    }
    // Clamped boundary columns, then the unclamped interior vectorized
    // across output positions with a sequential tap loop (each lane keeps
    // the reference's accumulation order).
    let hi = n - t + half + 1;
    conv1d_clamped_range(out, src, taps, 0, half);
    conv1d_clamped_range(out, src, taps, hi, n);
    let (op, sp) = (out.as_mut_ptr(), src.as_ptr());
    let mut i = half;
    while i + 4 <= hi {
        // SAFETY: lanes [i, i+4) read src[i−half+k .. i−half+k+4) which
        // stays within [0, n) for every tap k in [0, t).
        unsafe {
            let mut acc = _mm256_setzero_pd();
            let base = sp.add(i - half);
            for (k, &kv) in taps.iter().enumerate() {
                let s = _mm256_loadu_pd(base.add(k));
                acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(kv), s));
            }
            _mm256_storeu_pd(op.add(i), acc);
        }
        i += 4;
    }
    conv1d_clamped_range(out, src, taps, i, hi);
}

#[target_feature(enable = "sse2")]
pub(super) fn conv1d_clamped_into_sse2(out: &mut [f64], src: &[f64], taps: &[f64]) {
    let n = src.len();
    let t = taps.len();
    let half = t / 2;
    if n < t {
        return conv1d_clamped_range(out, src, taps, 0, n);
    }
    let hi = n - t + half + 1;
    conv1d_clamped_range(out, src, taps, 0, half);
    conv1d_clamped_range(out, src, taps, hi, n);
    let (op, sp) = (out.as_mut_ptr(), src.as_ptr());
    let mut i = half;
    while i + 2 <= hi {
        // SAFETY: lanes [i, i+2) read src[i−half+k .. i−half+k+2) which
        // stays within [0, n) for every tap k in [0, t).
        unsafe {
            let mut acc = _mm_setzero_pd();
            let base = sp.add(i - half);
            for (k, &kv) in taps.iter().enumerate() {
                let s = _mm_loadu_pd(base.add(k));
                acc = _mm_add_pd(acc, _mm_mul_pd(_mm_set1_pd(kv), s));
            }
            _mm_storeu_pd(op.add(i), acc);
        }
        i += 2;
    }
    conv1d_clamped_range(out, src, taps, i, hi);
}

// ---------------------------------------------------------------------------
// 3×3 median on total-order keys (integer selections only)
// ---------------------------------------------------------------------------

/// The `total_cmp` key map (an involution) on four lanes: XOR with the sign
/// mask shifted right by one. AVX2 has no 64-bit arithmetic shift, so the
/// sign mask is `0 > b`.
#[inline]
#[target_feature(enable = "avx2")]
fn key_avx2(b: __m256i) -> __m256i {
    let neg = _mm256_cmpgt_epi64(_mm256_setzero_si256(), b);
    _mm256_xor_si256(b, _mm256_srli_epi64::<1>(neg))
}

/// Loads four keys at `p + at`.
///
/// # Safety
///
/// `p + at .. p + at + 4` must lie within one allocation.
#[inline]
#[target_feature(enable = "avx2")]
// SAFETY: the bounds are the caller's contract (see `# Safety`).
unsafe fn ld_avx2(p: *const i64, at: usize) -> __m256i {
    // SAFETY: bounds are the caller's contract.
    unsafe { _mm256_loadu_si256(p.add(at).cast::<__m256i>()) }
}

#[inline]
#[target_feature(enable = "avx2")]
fn min_avx2(a: __m256i, b: __m256i) -> __m256i {
    _mm256_blendv_epi8(a, b, _mm256_cmpgt_epi64(a, b))
}

#[inline]
#[target_feature(enable = "avx2")]
fn max_avx2(a: __m256i, b: __m256i) -> __m256i {
    _mm256_blendv_epi8(b, a, _mm256_cmpgt_epi64(a, b))
}

#[inline]
#[target_feature(enable = "avx2")]
fn med3_avx2(a: __m256i, b: __m256i, c: __m256i) -> __m256i {
    max_avx2(min_avx2(a, b), min_avx2(max_avx2(a, b), c))
}

#[target_feature(enable = "avx2")]
pub(super) fn median3_sort_into_avx2(keys: &mut [i64], col: &[f64]) {
    let n = col.len();
    // Row 0 clamps upward; rows [1, r) run vectorized while the lane's
    // last row still has a real row below it; the rest (including the
    // clamped last row) runs the reference.
    let first = n.min(1);
    median3_sort_range(keys, col, 0, first);
    let (cp, kp) = (col.as_ptr(), keys.as_mut_ptr());
    let mut r = first;
    while r + 4 < n {
        // SAFETY: r >= 1 and r + 4 <= n − 1, so the loads cover
        // col[r−1 .. r+5) ⊂ [0, n) and the stores land in each plane's
        // [r, r+4) ⊂ [0, n) of keys (length 3n).
        unsafe {
            let a = key_avx2(_mm256_loadu_si256(cp.add(r - 1).cast::<__m256i>()));
            let b = key_avx2(_mm256_loadu_si256(cp.add(r).cast::<__m256i>()));
            let c = key_avx2(_mm256_loadu_si256(cp.add(r + 1).cast::<__m256i>()));
            let (a, b) = (min_avx2(a, b), max_avx2(a, b));
            let (b, c) = (min_avx2(b, c), max_avx2(b, c));
            _mm256_storeu_si256(kp.add(r).cast::<__m256i>(), min_avx2(a, b));
            _mm256_storeu_si256(kp.add(n + r).cast::<__m256i>(), max_avx2(a, b));
            _mm256_storeu_si256(kp.add(2 * n + r).cast::<__m256i>(), c);
        }
        r += 4;
    }
    median3_sort_range(keys, col, r, n);
}

#[target_feature(enable = "avx2")]
pub(super) fn median3_merge_into_avx2(
    out: &mut [f64],
    left: &[i64],
    center: &[i64],
    right: &[i64],
) {
    let n = out.len();
    let (op, lp, cp, rp) = (out.as_mut_ptr(), left.as_ptr(), center.as_ptr(), right.as_ptr());
    let mut r = 0;
    while r + 4 <= n {
        // SAFETY: r + 4 <= n; each input holds 3n keys, so plane offsets
        // 0, n, 2n plus [r, r+4) stay in bounds, and out holds n values.
        unsafe {
            let lo = max_avx2(max_avx2(ld_avx2(lp, r), ld_avx2(cp, r)), ld_avx2(rp, r));
            let mid = med3_avx2(ld_avx2(lp, n + r), ld_avx2(cp, n + r), ld_avx2(rp, n + r));
            let hi = min_avx2(ld_avx2(lp, 2 * n + r), ld_avx2(cp, 2 * n + r));
            let hi = min_avx2(hi, ld_avx2(rp, 2 * n + r));
            let m = key_avx2(med3_avx2(lo, mid, hi));
            _mm256_storeu_si256(op.add(r).cast::<__m256i>(), m);
        }
        r += 4;
    }
    median3_merge_range(out, left, center, right, r, n);
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

#[target_feature(enable = "avx2")]
pub(super) fn fir_complex_dot_avx2(taps: &[Complex], x: &[f64]) -> Complex {
    let n = taps.len();
    let (tp, xp) = (f64_ptr(taps), x.as_ptr());
    let mut acc0 = _mm256_setzero_pd();
    let mut acc1 = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: taps [i, i+4) span f64 offsets [2i, 2i+8) <= 2n and
        // x[i..i+4) <= n (equal lengths asserted by the wrapper).
        unsafe {
            let t0 = _mm256_loadu_pd(tp.add(2 * i));
            let t1 = _mm256_loadu_pd(tp.add(2 * i + 4));
            let xv = _mm256_loadu_pd(xp.add(i)); // [x0, x1, x2, x3]
            // [x0, x0, x1, x1] and [x2, x2, x3, x3]
            let x01 = _mm256_permute4x64_pd(xv, 0b0101_0000);
            let x23 = _mm256_permute4x64_pd(xv, 0b1111_1010);
            acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(t0, x01));
            acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(t1, x23));
        }
        i += 4;
    }
    let acc = _mm256_add_pd(acc0, acc1);
    let pair = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut sums = [0.0; 2];
    // SAFETY: `sums` is exactly two f64s.
    unsafe { _mm_storeu_pd(sums.as_mut_ptr(), pair) };
    // echolint: allow(no-panic-path) -- `sums` is a fixed-size [f64; 2]
    let mut total = Complex::new(sums[0], sums[1]);
    while i < n {
        total += taps[i].scale(x[i]);
        i += 1;
    }
    total
}

#[target_feature(enable = "sse2")]
pub(super) fn fir_complex_dot_sse2(taps: &[Complex], x: &[f64]) -> Complex {
    let n = taps.len();
    let (tp, xp) = (f64_ptr(taps), x.as_ptr());
    let mut acc0 = _mm_setzero_pd();
    let mut acc1 = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: taps [i, i+2) span f64 offsets [2i, 2i+4) <= 2n and
        // x[i..i+2) <= n.
        unsafe {
            let t0 = _mm_loadu_pd(tp.add(2 * i));
            let t1 = _mm_loadu_pd(tp.add(2 * i + 2));
            acc0 = _mm_add_pd(acc0, _mm_mul_pd(t0, _mm_set1_pd(*xp.add(i))));
            acc1 = _mm_add_pd(acc1, _mm_mul_pd(t1, _mm_set1_pd(*xp.add(i + 1))));
        }
        i += 2;
    }
    let acc = _mm_add_pd(acc0, acc1);
    let mut sums = [0.0; 2];
    // SAFETY: `sums` is exactly two f64s.
    unsafe { _mm_storeu_pd(sums.as_mut_ptr(), acc) };
    // echolint: allow(no-panic-path) -- `sums` is a fixed-size [f64; 2]
    let mut total = Complex::new(sums[0], sums[1]);
    while i < n {
        total += taps[i].scale(x[i]);
        i += 1;
    }
    total
}

#[target_feature(enable = "avx2")]
pub(super) fn fold_min_avx2(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = _mm256_set1_pd(f64::INFINITY);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe { acc = _mm256_min_pd(acc, _mm256_loadu_pd(xp.add(i))) };
        i += 4;
    }
    let pair = _mm_min_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut m = _mm_cvtsd_f64(_mm_min_pd(pair, _mm_shuffle_pd(pair, pair, 0b01)));
    while i < n {
        m = m.min(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "sse2")]
pub(super) fn fold_min_sse2(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = _mm_set1_pd(f64::INFINITY);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe { acc = _mm_min_pd(acc, _mm_loadu_pd(xp.add(i))) };
        i += 2;
    }
    let mut m = _mm_cvtsd_f64(_mm_min_pd(acc, _mm_shuffle_pd(acc, acc, 0b01)));
    while i < n {
        m = m.min(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "avx2")]
pub(super) fn fold_max_avx2(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = _mm256_set1_pd(f64::NEG_INFINITY);
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe { acc = _mm256_max_pd(acc, _mm256_loadu_pd(xp.add(i))) };
        i += 4;
    }
    let pair = _mm_max_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut m = _mm_cvtsd_f64(_mm_max_pd(pair, _mm_shuffle_pd(pair, pair, 0b01)));
    while i < n {
        m = m.max(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "sse2")]
pub(super) fn fold_max_sse2(xs: &[f64]) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let mut acc = _mm_set1_pd(f64::NEG_INFINITY);
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe { acc = _mm_max_pd(acc, _mm_loadu_pd(xp.add(i))) };
        i += 2;
    }
    let mut m = _mm_cvtsd_f64(_mm_max_pd(acc, _mm_shuffle_pd(acc, acc, 0b01)));
    while i < n {
        m = m.max(xs[i]);
        i += 1;
    }
    m
}

#[target_feature(enable = "avx2")]
pub(super) fn envelope_charge_avx2(xs: &[f64], lo: f64, hi: f64) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let lov = _mm256_set1_pd(lo);
    let hiv = _mm256_set1_pd(hi);
    let zero = _mm256_setzero_pd();
    let mut acc = _mm256_setzero_pd();
    let mut i = 0;
    while i + 4 <= n {
        // SAFETY: i + 4 <= n.
        unsafe {
            let v = _mm256_loadu_pd(xp.add(i));
            let over = _mm256_max_pd(_mm256_sub_pd(v, hiv), zero);
            let under = _mm256_max_pd(_mm256_sub_pd(lov, v), zero);
            acc = _mm256_add_pd(acc, _mm256_add_pd(over, under));
        }
        i += 4;
    }
    let pair = _mm_add_pd(_mm256_castpd256_pd128(acc), _mm256_extractf128_pd(acc, 1));
    let mut total = _mm_cvtsd_f64(_mm_add_pd(pair, _mm_shuffle_pd(pair, pair, 0b01)));
    while i < n {
        let v = xs[i];
        if v > hi {
            total += v - hi;
        } else if v < lo {
            total += lo - v;
        }
        i += 1;
    }
    total
}

#[target_feature(enable = "sse2")]
pub(super) fn envelope_charge_sse2(xs: &[f64], lo: f64, hi: f64) -> f64 {
    let n = xs.len();
    let xp = xs.as_ptr();
    let lov = _mm_set1_pd(lo);
    let hiv = _mm_set1_pd(hi);
    let zero = _mm_setzero_pd();
    let mut acc = _mm_setzero_pd();
    let mut i = 0;
    while i + 2 <= n {
        // SAFETY: i + 2 <= n.
        unsafe {
            let v = _mm_loadu_pd(xp.add(i));
            let over = _mm_max_pd(_mm_sub_pd(v, hiv), zero);
            let under = _mm_max_pd(_mm_sub_pd(lov, v), zero);
            acc = _mm_add_pd(acc, _mm_add_pd(over, under));
        }
        i += 2;
    }
    let mut total = _mm_cvtsd_f64(_mm_add_pd(acc, _mm_shuffle_pd(acc, acc, 0b01)));
    while i < n {
        let v = xs[i];
        if v > hi {
            total += v - hi;
        } else if v < lo {
            total += lo - v;
        }
        i += 1;
    }
    total
}
