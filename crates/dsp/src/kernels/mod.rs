//! Runtime-dispatched SIMD kernels for the pipeline's hottest inner loops.
//!
//! Every kernel has exactly one semantic definition — its `*_ref` scalar
//! reference — and up to three vectorized implementations selected once per
//! process by [`backend`]: AVX2 and SSE2 on `x86_64` (SSE2 is the
//! architectural baseline, so x86 never falls back to scalar unless forced)
//! and NEON on `aarch64`. Everything else runs the reference directly.
//!
//! # Equivalence policy (DESIGN.md §6.7)
//!
//! Kernels come in two accuracy classes, and every vectorized body is pinned
//! to its reference by tests in this module plus the workspace lane-remainder
//! property suite:
//!
//! * **bitwise** — elementwise maps (windowed multiply, complex-by-real
//!   scale, subtract-and-clamp, threshold, binarize, absolute difference),
//!   FFT butterfly passes, the RealFFT split, clamped 1-D convolution, and
//!   `axpy` perform *the same operations in the same per-element order* as
//!   the reference; no FMA contraction, no reassociation. Min/max folds are
//!   selections (no rounding), so they are bitwise on any association. The
//!   3×3 median kernels select on integer `total_cmp` keys, so they are
//!   bitwise against their select-based oracle for every input, NaN
//!   included.
//! * **1e-9** — reductions that use multiple accumulators for throughput
//!   ([`fir_complex_dot`], [`envelope_charge`]) reassociate the sum and are
//!   pinned to the reference within `1e-9` relative error.
//!
//! # Dispatch
//!
//! The backend is detected once (cached in a `OnceLock`) from CPU features,
//! and can be overridden with the `ECHOWRITE_SIMD` environment variable
//! (`scalar`, `sse2`, `avx2`, `neon`); a request the hardware cannot honour
//! degrades to the best supported backend. CI runs the full tier-1 suite
//! with `ECHOWRITE_SIMD=scalar` so the fallback path stays exercised.
//!
//! `std::arch` intrinsics are confined to this module tree by echolint's
//! `simd-boundary` rule; the submodules carry the only sanctioned
//! `allow(unsafe_code)` override in the workspace, and every pointer access
//! is bounded by the slice lengths asserted in the safe wrappers here.

// SIMD intrinsics require `unsafe`; this module is the workspace's single
// sanctioned exception to the `unsafe_code = deny` wall. All pointer
// arithmetic is bounded by slice-length assertions in the safe wrappers.
#![allow(unsafe_code)]

use crate::complex::Complex;
use std::sync::OnceLock;

#[cfg(target_arch = "x86_64")]
mod x86;

#[cfg(target_arch = "aarch64")]
mod neon;

/// The instruction-set backend the kernels dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable reference implementations (always available).
    Scalar,
    /// 128-bit x86 vectors (baseline on `x86_64`).
    Sse2,
    /// 256-bit x86 vectors (runtime-detected).
    Avx2,
    /// 128-bit ARM vectors (baseline on `aarch64`).
    Neon,
}

impl Backend {
    /// Stable lowercase name, as used by `ECHOWRITE_SIMD` and bench
    /// environment blocks.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Scalar => "scalar",
            Backend::Sse2 => "sse2",
            Backend::Avx2 => "avx2",
            Backend::Neon => "neon",
        }
    }

    /// Number of `f64` lanes a vector register holds on this backend.
    pub fn f64_lanes(self) -> usize {
        match self {
            Backend::Scalar => 1,
            Backend::Sse2 | Backend::Neon => 2,
            Backend::Avx2 => 4,
        }
    }
}

/// SIMD feature sets the running CPU supports, independent of any
/// `ECHOWRITE_SIMD` override (for bench environment blocks).
pub fn detected_features() -> &'static [&'static str] {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            &["avx2", "sse2"]
        } else {
            &["sse2"]
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        &["neon"]
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        &[]
    }
}

/// The best backend the running CPU supports.
fn best_supported() -> Backend {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            Backend::Avx2
        } else {
            Backend::Sse2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        Backend::Neon
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        Backend::Scalar
    }
}

/// Resolves the backend: an `ECHOWRITE_SIMD` override capped by what the
/// hardware supports, otherwise the best detected feature set.
fn resolve_backend() -> Backend {
    let best = best_supported();
    let Ok(requested) = std::env::var("ECHOWRITE_SIMD") else {
        return best;
    };
    match requested.trim().to_ascii_lowercase().as_str() {
        "scalar" => Backend::Scalar,
        "sse2" if cfg!(target_arch = "x86_64") => Backend::Sse2,
        // A narrower request than the hardware offers is honoured; a wider
        // or cross-architecture one degrades to the best supported.
        "avx2" if best == Backend::Avx2 => Backend::Avx2,
        "neon" if cfg!(target_arch = "aarch64") => Backend::Neon,
        _ => best,
    }
}

/// The process-wide kernel backend (detected once, then cached).
pub fn backend() -> Backend {
    static BACKEND: OnceLock<Backend> = OnceLock::new();
    *BACKEND.get_or_init(resolve_backend)
}

// ---------------------------------------------------------------------------
// Elementwise maps (bitwise class)
// ---------------------------------------------------------------------------

/// `dst[i] = a[i] * b[i]` — the STFT windowed multiply. Bitwise.
// echolint: hot entry
pub fn mul_into(dst: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(dst.len(), a.len());
    assert_eq!(dst.len(), b.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::mul_into_avx2(dst, a, b) },
        Backend::Sse2 => return unsafe { x86::mul_into_sse2(dst, a, b) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::mul_into_neon(dst, a, b) };
    }
    mul_into_ref(dst, a, b);
}

/// Scalar reference for [`mul_into`].
// echolint: hot entry
pub fn mul_into_ref(dst: &mut [f64], a: &[f64], b: &[f64]) {
    for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
        *d = x * y;
    }
}

/// `dst[i] = src[i].scale(w[i])` — the baseband windowed multiply
/// (complex-by-real). Bitwise.
// echolint: hot entry
pub fn scale_complex_into(dst: &mut [Complex], src: &[Complex], w: &[f64]) {
    assert_eq!(dst.len(), src.len());
    assert_eq!(dst.len(), w.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::scale_complex_into_avx2(dst, src, w) },
        Backend::Sse2 => return unsafe { x86::scale_complex_into_sse2(dst, src, w) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::scale_complex_into_neon(dst, src, w) };
    }
    scale_complex_into_ref(dst, src, w);
}

/// Scalar reference for [`scale_complex_into`].
// echolint: hot entry
pub fn scale_complex_into_ref(dst: &mut [Complex], src: &[Complex], w: &[f64]) {
    for ((d, &z), &k) in dst.iter_mut().zip(src).zip(w) {
        *d = z.scale(k);
    }
}

/// `dst[i] = (dst[i] - sub).max(0.0)` — static-background subtraction with
/// a per-row scalar. Bitwise (the clamp is a select, not an arithmetic op).
pub fn subtract_clamp(dst: &mut [f64], sub: f64) {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::subtract_clamp_avx2(dst, sub) },
        Backend::Sse2 => return unsafe { x86::subtract_clamp_sse2(dst, sub) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::subtract_clamp_neon(dst, sub) };
    }
    subtract_clamp_ref(dst, sub);
}

/// Scalar reference for [`subtract_clamp`].
pub fn subtract_clamp_ref(dst: &mut [f64], sub: f64) {
    for v in dst {
        *v = (*v - sub).max(0.0);
    }
}

/// `dst[i] = (dst[i] - bg[i]).max(0.0)` — per-element background
/// subtraction (streaming enhancement columns). Bitwise.
// echolint: hot entry
pub fn subtract_clamp_bg(dst: &mut [f64], bg: &[f64]) {
    assert_eq!(dst.len(), bg.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::subtract_clamp_bg_avx2(dst, bg) },
        Backend::Sse2 => return unsafe { x86::subtract_clamp_bg_sse2(dst, bg) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::subtract_clamp_bg_neon(dst, bg) };
    }
    subtract_clamp_bg_ref(dst, bg);
}

/// Scalar reference for [`subtract_clamp_bg`].
// echolint: hot entry
pub fn subtract_clamp_bg_ref(dst: &mut [f64], bg: &[f64]) {
    for (v, &b) in dst.iter_mut().zip(bg) {
        *v = (*v - b).max(0.0);
    }
}

/// `dst[i] = 0.0 if dst[i] < alpha` — the enhancement noise gate. Bitwise.
pub fn threshold_zero(dst: &mut [f64], alpha: f64) {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::threshold_zero_avx2(dst, alpha) },
        Backend::Sse2 => return unsafe { x86::threshold_zero_sse2(dst, alpha) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::threshold_zero_neon(dst, alpha) };
    }
    threshold_zero_ref(dst, alpha);
}

/// Scalar reference for [`threshold_zero`].
pub fn threshold_zero_ref(dst: &mut [f64], alpha: f64) {
    for v in dst {
        if *v < alpha {
            *v = 0.0;
        }
    }
}

/// `dst[i] = if dst[i] >= t { 1.0 } else { 0.0 }` — binarization. Bitwise.
pub fn binarize(dst: &mut [f64], t: f64) {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::binarize_avx2(dst, t) },
        Backend::Sse2 => return unsafe { x86::binarize_sse2(dst, t) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::binarize_neon(dst, t) };
    }
    binarize_ref(dst, t);
}

/// Scalar reference for [`binarize`].
pub fn binarize_ref(dst: &mut [f64], t: f64) {
    for v in dst {
        *v = if *v >= t { 1.0 } else { 0.0 };
    }
}

/// `out[j] = (x - b[j]).abs()` — the DTW local-cost row against one query
/// sample. Bitwise (`abs` clears the sign bit; no rounding).
// echolint: hot entry
pub fn abs_diff_broadcast_into(out: &mut [f64], x: f64, b: &[f64]) {
    assert_eq!(out.len(), b.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::abs_diff_broadcast_into_avx2(out, x, b) },
        Backend::Sse2 => return unsafe { x86::abs_diff_broadcast_into_sse2(out, x, b) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::abs_diff_broadcast_into_neon(out, x, b) };
    }
    abs_diff_broadcast_into_ref(out, x, b);
}

/// Scalar reference for [`abs_diff_broadcast_into`].
// echolint: hot entry
pub fn abs_diff_broadcast_into_ref(out: &mut [f64], x: f64, b: &[f64]) {
    for (o, &y) in out.iter_mut().zip(b) {
        *o = (x - y).abs();
    }
}

/// `acc[i] += w * src[i]` — one tap of a separable convolution accumulated
/// across stored columns. Bitwise (same per-element multiply-add order as
/// the reference; no FMA contraction).
// echolint: hot entry
pub fn axpy(acc: &mut [f64], src: &[f64], w: f64) {
    assert_eq!(acc.len(), src.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::axpy_avx2(acc, src, w) },
        Backend::Sse2 => return unsafe { x86::axpy_sse2(acc, src, w) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::axpy_neon(acc, src, w) };
    }
    axpy_ref(acc, src, w);
}

/// Scalar reference for [`axpy`].
// echolint: hot entry
pub fn axpy_ref(acc: &mut [f64], src: &[f64], w: f64) {
    for (a, &s) in acc.iter_mut().zip(src) {
        *a += w * s;
    }
}

// ---------------------------------------------------------------------------
// Structured passes (bitwise class)
// ---------------------------------------------------------------------------

/// One radix-2 butterfly pass: `t = w·v[k]; (u[k], v[k]) = (u[k]+t, u[k]−t)`
/// with `w = tw[k]` (conjugated when `inverse`). `u` and `v` are the two
/// halves of one FFT block. Bitwise: the complex multiply keeps the scalar
/// operand order and rounding (no FMA).
// echolint: hot entry
pub fn butterfly_pass(u: &mut [Complex], v: &mut [Complex], tw: &[Complex], inverse: bool) {
    assert_eq!(u.len(), v.len());
    assert_eq!(u.len(), tw.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::butterfly_pass_avx2(u, v, tw, inverse) },
        Backend::Sse2 => return unsafe { x86::butterfly_pass_sse2(u, v, tw, inverse) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::butterfly_pass_neon(u, v, tw, inverse) };
    }
    butterfly_pass_ref(u, v, tw, inverse);
}

/// Scalar reference for [`butterfly_pass`].
// echolint: hot entry
pub fn butterfly_pass_ref(u: &mut [Complex], v: &mut [Complex], tw: &[Complex], inverse: bool) {
    for ((a, b), &w) in u.iter_mut().zip(v).zip(tw) {
        let w = if inverse { w.conj() } else { w };
        let t = w * *b;
        let ua = *a;
        *a = ua + t;
        *b = ua - t;
    }
}

/// The RealFFT even/odd split for interior bins `k ∈ [1, m)`:
/// `out[k] = (z_k + conj(z_{m−k}))/2 + tw[k] · odd_k` with
/// `odd_k = (diff.im/2, −diff.re/2)`, `diff = z_k − conj(z_{m−k})`.
/// `packed` holds the `m` half-size complex bins; DC and Nyquist are the
/// caller's business. Bitwise: per-`k` independent, operand order preserved.
// echolint: hot entry
pub fn realfft_split(out: &mut [Complex], packed: &[Complex], tw: &[Complex]) {
    let m = packed.len();
    assert!(out.len() >= m);
    assert!(tw.len() >= m);
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::realfft_split_avx2(out, packed, tw) },
        Backend::Sse2 => return unsafe { x86::realfft_split_sse2(out, packed, tw) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::realfft_split_neon(out, packed, tw) };
    }
    realfft_split_ref(out, packed, tw);
}

/// Scalar reference for [`realfft_split`].
// echolint: hot entry
pub fn realfft_split_ref(out: &mut [Complex], packed: &[Complex], tw: &[Complex]) {
    let m = packed.len();
    for k in 1..m {
        let zk = packed[k];
        let zc = packed[m - k].conj();
        let even = (zk + zc).scale(0.5);
        let diff = zk - zc;
        let odd = Complex::new(diff.im * 0.5, -diff.re * 0.5);
        out[k] = even + tw[k] * odd;
    }
}

/// Same-size 1-D convolution with clamp-to-edge boundary:
/// `out[i] = Σ_k taps[k] · src[clamp(i + k − taps.len()/2)]`. The interior
/// is vectorized across output positions with a sequential tap loop per
/// lane, so each output keeps the reference's accumulation order — bitwise.
// echolint: hot entry
pub fn conv1d_clamped_into(out: &mut [f64], src: &[f64], taps: &[f64]) {
    assert_eq!(out.len(), src.len());
    assert!(!taps.is_empty());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::conv1d_clamped_into_avx2(out, src, taps) },
        Backend::Sse2 => return unsafe { x86::conv1d_clamped_into_sse2(out, src, taps) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::conv1d_clamped_into_neon(out, src, taps) };
    }
    conv1d_clamped_into_ref(out, src, taps);
}

/// Scalar reference for [`conv1d_clamped_into`].
// echolint: hot entry
pub fn conv1d_clamped_into_ref(out: &mut [f64], src: &[f64], taps: &[f64]) {
    conv1d_clamped_range(out, src, taps, 0, src.len());
}

/// The clamped convolution over output positions `[from, to)` only — the
/// SIMD implementations reuse it for the boundary columns.
// echolint: hot entry
pub(crate) fn conv1d_clamped_range(
    out: &mut [f64],
    src: &[f64],
    taps: &[f64],
    from: usize,
    to: usize,
) {
    let n = src.len();
    let half = taps.len() / 2;
    for (i, o) in out.iter_mut().enumerate().take(to).skip(from) {
        let mut acc = 0.0;
        for (k, &kv) in taps.iter().enumerate() {
            let idx = (i + k).saturating_sub(half).min(n - 1);
            acc += kv * src[idx];
        }
        *o = acc;
    }
}

// ---------------------------------------------------------------------------
// 3×3 median (bitwise class)
// ---------------------------------------------------------------------------
//
// The median of a clamped 3×3 window is computed over "columns"
// (contiguous slices; the window's vertical axis runs along a slice, its
// horizontal axis across three neighbouring slices). Each value is mapped
// once to its `total_cmp` key, and each column's vertical clamped triples
// `(x[r−1], x[r], x[r+1])` are sorted once into `lo | mid | hi` planes; a
// sorted column serves the three output columns around it. The median of
// three sorted triples is `med3(max(lo), med3(mid), min(hi))`, taken as
// branchless min/max selections.
//
// Keys compare as signed integers exactly like `f64::total_cmp`, and two
// values have equal keys only if their bits are equal, so the result is
// bitwise the oracle's `select_nth_unstable_by(total_cmp)` on every input,
// NaN payloads, ±0.0, ±∞ and subnormals included.
//
// Two kernels share the sorted layout: `median3_sort_into` sorts one
// column and `median3_merge_into` takes the median of three sorted
// columns, so a sliding window sorts each new column once into the slot of
// the column that just left it and keeps three sorted columns.

/// The `f64::total_cmp` key of `x`: its bits as `i64` with every bit but
/// the sign flipped when the sign is set, so signed integer order is
/// `total_cmp` order. The map is an involution: applying it to a key gives
/// back the value's bits.
#[inline]
fn total_order_key(x: f64) -> i64 {
    flip_key(x.to_bits() as i64)
}

/// Inverse of [`total_order_key`] (the same bit map).
#[inline]
fn from_total_order_key(k: i64) -> f64 {
    f64::from_bits(flip_key(k) as u64)
}

#[inline]
fn flip_key(b: i64) -> i64 {
    b ^ (((b >> 63) as u64) >> 1) as i64
}

/// Row `r`'s vertical clamped triple of `col`, sorted, as keys.
#[inline]
fn sorted_triple(col: &[f64], r: usize) -> (i64, i64, i64) {
    let a = total_order_key(col[r.saturating_sub(1)]);
    let b = total_order_key(col[r]);
    let c = total_order_key(col[(r + 1).min(col.len() - 1)]);
    let (a, b) = (a.min(b), a.max(b));
    let (b, c) = (b.min(c), b.max(c));
    (a.min(b), a.max(b), c)
}

#[inline]
fn med3(a: i64, b: i64, c: i64) -> i64 {
    a.min(b).max(a.max(b).min(c))
}

/// Sorts the vertical clamped triples of `col` into `keys` as total-order
/// keys, laid out as three planes of `col.len()`: `keys[..n]` the lows,
/// `keys[n..2n]` the middles, `keys[2n..]` the highs, where row `r`'s
/// triple is `(col[r−1], col[r], col[r+1])` with edge rows replicated.
/// Bitwise (integer min/max only).
// echolint: hot entry
pub fn median3_sort_into(keys: &mut [i64], col: &[f64]) {
    assert_eq!(keys.len(), 3 * col.len());
    // SAFETY: the lane runs only when backend() has verified AVX2 at
    // runtime — exactly the contract its #[target_feature] requires; the
    // slices pass through unchanged, so the length assertion above keeps
    // every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        return unsafe { x86::median3_sort_into_avx2(keys, col) };
    }
    median3_sort_into_ref(keys, col);
}

/// Scalar reference for [`median3_sort_into`] (also the SSE2, NEON and
/// forced scalar path).
// echolint: hot entry
pub fn median3_sort_into_ref(keys: &mut [i64], col: &[f64]) {
    median3_sort_range(keys, col, 0, col.len());
}

/// [`median3_sort_into_ref`] over rows `[from, to)` only — the SIMD
/// implementations reuse it for the two clamped edge rows and the tail.
// echolint: hot entry
pub(crate) fn median3_sort_range(keys: &mut [i64], col: &[f64], from: usize, to: usize) {
    let n = col.len();
    for r in from..to {
        let (lo, mid, hi) = sorted_triple(col, r);
        keys[r] = lo;
        keys[n + r] = mid;
        keys[2 * n + r] = hi;
    }
}

/// The 3×3 median of three sorted columns (each laid out as
/// [`median3_sort_into`] writes it): `out[r] = med3(max(lo), med3(mid),
/// min(hi))` over the three columns' row-`r` triples, mapped back from key
/// to value. Pass the same column twice to replicate an edge. Bitwise
/// (selections only).
// echolint: hot entry
pub fn median3_merge_into(out: &mut [f64], left: &[i64], center: &[i64], right: &[i64]) {
    assert_eq!(left.len(), 3 * out.len());
    assert_eq!(center.len(), 3 * out.len());
    assert_eq!(right.len(), 3 * out.len());
    // SAFETY: the lane runs only when backend() has verified AVX2 at
    // runtime — exactly the contract its #[target_feature] requires; the
    // slices pass through unchanged, so the length assertions above keep
    // every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    if backend() == Backend::Avx2 {
        return unsafe { x86::median3_merge_into_avx2(out, left, center, right) };
    }
    median3_merge_into_ref(out, left, center, right);
}

/// Scalar reference for [`median3_merge_into`] (also the SSE2, NEON and
/// forced scalar path).
// echolint: hot entry
pub fn median3_merge_into_ref(out: &mut [f64], left: &[i64], center: &[i64], right: &[i64]) {
    median3_merge_range(out, left, center, right, 0, out.len());
}

/// [`median3_merge_into_ref`] over rows `[from, to)` only — the SIMD tail.
// echolint: hot entry
pub(crate) fn median3_merge_range(
    out: &mut [f64],
    left: &[i64],
    center: &[i64],
    right: &[i64],
    from: usize,
    to: usize,
) {
    let n = out.len();
    for r in from..to {
        let lo = left[r].max(center[r]).max(right[r]);
        let mid = med3(left[n + r], center[n + r], right[n + r]);
        let hi = left[2 * n + r].min(center[2 * n + r]).min(right[2 * n + r]);
        out[r] = from_total_order_key(med3(lo, mid, hi));
    }
}

/// Recovers the column [`median3_sort_into`] sorted into `keys`: row 0's
/// triple is `(x0, x0, x1)`, so its middle is `x0` and its other value
/// `x1`; every later triple `(x[r−1], x[r], x[r+1])` gives `x[r+1]` once the
/// two known values are taken out. Bitwise. A sorted column is therefore
/// the only copy a stream needs to keep.
pub fn median3_unsort_into(col: &mut [f64], keys: &[i64]) {
    let n = col.len();
    assert_eq!(keys.len(), 3 * n);
    let (lo, rest) = keys.split_at(n);
    let (mid, hi) = rest.split_at(n);
    // (x[r], x[r+1]), starting from row 0's triple.
    let mut known = match (lo.first(), mid.first(), hi.first()) {
        (Some(&l), Some(&m), Some(&h)) => (m, if l == m { h } else { l }),
        _ => return,
    };
    for r in 0..n {
        col[r] = from_total_order_key(known.0);
        let t = r + 1;
        let next = if t + 1 < n {
            // Triple t is (x[t−1], x[t], x[t+1]): drop the two known values.
            let (a, b) = if lo[t] == known.0 {
                (mid[t], hi[t])
            } else if mid[t] == known.0 {
                (lo[t], hi[t])
            } else {
                (lo[t], mid[t])
            };
            if a == known.1 {
                b
            } else {
                a
            }
        } else {
            known.1
        };
        known = (known.1, next);
    }
}

/// The oracle for the median kernels: for each row `r`, the median under
/// `f64::total_cmp` of the nine values `left|center|right[r−1 ..= r+1]`
/// (rows clamped to the slice), by `select_nth_unstable_by` on the
/// gathered window. `median3_merge_into` of the three columns'
/// `median3_sort_into` keys equals it bitwise.
pub fn median3x3_into_ref(out: &mut [f64], left: &[f64], center: &[f64], right: &[f64]) {
    let n = out.len();
    assert_eq!(left.len(), n);
    assert_eq!(center.len(), n);
    assert_eq!(right.len(), n);
    let mut window = [0.0f64; 9];
    for r in 0..n {
        let rows = [r.saturating_sub(1), r, (r + 1).min(n - 1)];
        for (i, &rr) in rows.iter().enumerate() {
            window[3 * i] = left[rr];
            window[3 * i + 1] = center[rr];
            window[3 * i + 2] = right[rr];
        }
        let (_, m, _) = window.select_nth_unstable_by(4, |a, b| a.total_cmp(b));
        out[r] = *m;
    }
}

// ---------------------------------------------------------------------------
// Reductions
// ---------------------------------------------------------------------------

/// Complex FIR dot product `Σ_t taps[t] · x[t]` (taps complex, signal
/// real) — the downconvert mixer's inner loop. **1e-9 class**: multiple
/// accumulators reassociate the sum.
pub fn fir_complex_dot(taps: &[Complex], x: &[f64]) -> Complex {
    assert_eq!(taps.len(), x.len());
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::fir_complex_dot_avx2(taps, x) },
        Backend::Sse2 => return unsafe { x86::fir_complex_dot_sse2(taps, x) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::fir_complex_dot_neon(taps, x) };
    }
    fir_complex_dot_ref(taps, x)
}

/// Scalar reference for [`fir_complex_dot`].
pub fn fir_complex_dot_ref(taps: &[Complex], x: &[f64]) -> Complex {
    let mut acc = Complex::ZERO;
    for (&ct, &s) in taps.iter().zip(x) {
        acc += ct.scale(s);
    }
    acc
}

/// Minimum over `xs` (identity `+∞`). Min is a selection — no rounding —
/// so any association yields the same value: bitwise for finite inputs.
pub fn fold_min(xs: &[f64]) -> f64 {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::fold_min_avx2(xs) },
        Backend::Sse2 => return unsafe { x86::fold_min_sse2(xs) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::fold_min_neon(xs) };
    }
    fold_min_ref(xs)
}

/// Scalar reference for [`fold_min`].
pub fn fold_min_ref(xs: &[f64]) -> f64 {
    let mut m = f64::INFINITY;
    for &v in xs {
        m = m.min(v);
    }
    m
}

/// Maximum over `xs` (identity `−∞`); see [`fold_min`].
pub fn fold_max(xs: &[f64]) -> f64 {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::fold_max_avx2(xs) },
        Backend::Sse2 => return unsafe { x86::fold_max_sse2(xs) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::fold_max_neon(xs) };
    }
    fold_max_ref(xs)
}

/// Scalar reference for [`fold_max`].
pub fn fold_max_ref(xs: &[f64]) -> f64 {
    let mut m = f64::NEG_INFINITY;
    for &v in xs {
        m = m.max(v);
    }
    m
}

/// LB_Keogh charge against a global envelope: `Σ max(v−hi, 0) + max(lo−v,
/// 0)`. **1e-9 class**: lane accumulators reassociate the sum (each term is
/// identical to the reference's branch arithmetic).
pub fn envelope_charge(xs: &[f64], lo: f64, hi: f64) -> f64 {
    // SAFETY: each arm runs only when backend() has verified the matching
    // CPU feature at runtime — exactly the contract the #[target_feature]
    // lane functions require; the slices pass through unchanged, so the
    // length assertions above keep every lane access in bounds.
    #[cfg(target_arch = "x86_64")]
    match backend() {
        Backend::Avx2 => return unsafe { x86::envelope_charge_avx2(xs, lo, hi) },
        Backend::Sse2 => return unsafe { x86::envelope_charge_sse2(xs, lo, hi) },
        _ => {}
    }
    #[cfg(target_arch = "aarch64")]
    if backend() == Backend::Neon {
        return unsafe { neon::envelope_charge_neon(xs, lo, hi) };
    }
    envelope_charge_ref(xs, lo, hi)
}

/// Scalar reference for [`envelope_charge`].
pub fn envelope_charge_ref(xs: &[f64], lo: f64, hi: f64) -> f64 {
    let mut total = 0.0;
    for &v in xs {
        if v > hi {
            total += v - hi;
        } else if v < lo {
            total += lo - v;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random values spanning signs and magnitudes.
    fn values(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Map to roughly [-2, 2) with plenty of mantissa variety.
                (state as f64 / u64::MAX as f64) * 4.0 - 2.0
            })
            .collect()
    }

    fn complexes(n: usize, seed: u64) -> Vec<Complex> {
        let re = values(n, seed);
        let im = values(n, seed ^ 0xabcd);
        re.into_iter().zip(im).map(|(r, i)| Complex::new(r, i)).collect()
    }

    /// Lengths around every lane boundary (1, lane−1, lane, lane+1) plus
    /// odd ROI-band-like widths.
    const LENGTHS: &[usize] = &[0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 23, 64, 101, 129];

    #[test]
    fn backend_is_cached_and_reports_lanes() {
        let b = backend();
        assert_eq!(b, backend());
        assert!(b.f64_lanes() >= 1);
        assert!(!b.name().is_empty());
        assert!(detected_features().iter().all(|f| !f.is_empty()));
    }

    #[test]
    fn mul_into_matches_reference_bitwise() {
        for &n in LENGTHS {
            let a = values(n, 1);
            let b = values(n, 2);
            let mut fast = vec![0.0; n];
            let mut reference = vec![0.0; n];
            mul_into(&mut fast, &a, &b);
            mul_into_ref(&mut reference, &a, &b);
            assert!(fast == reference, "n={n}");
        }
    }

    #[test]
    fn scale_complex_into_matches_reference_bitwise() {
        for &n in LENGTHS {
            let src = complexes(n, 3);
            let w = values(n, 4);
            let mut fast = vec![Complex::ZERO; n];
            let mut reference = vec![Complex::ZERO; n];
            scale_complex_into(&mut fast, &src, &w);
            scale_complex_into_ref(&mut reference, &src, &w);
            assert!(fast == reference, "n={n}");
        }
    }

    #[test]
    fn subtract_clamp_variants_match_reference_bitwise() {
        for &n in LENGTHS {
            let base = values(n, 5);
            let bg = values(n, 6);
            let mut fast = base.clone();
            let mut reference = base.clone();
            subtract_clamp(&mut fast, 0.25);
            subtract_clamp_ref(&mut reference, 0.25);
            assert!(fast == reference, "n={n}");

            let mut fast = base.clone();
            let mut reference = base.clone();
            subtract_clamp_bg(&mut fast, &bg);
            subtract_clamp_bg_ref(&mut reference, &bg);
            assert!(fast == reference, "n={n}");
        }
    }

    #[test]
    fn threshold_and_binarize_match_reference_bitwise() {
        for &n in LENGTHS {
            let base = values(n, 7);
            let mut fast = base.clone();
            let mut reference = base.clone();
            threshold_zero(&mut fast, 0.1);
            threshold_zero_ref(&mut reference, 0.1);
            assert!(fast == reference, "n={n}");

            let mut fast = base.clone();
            let mut reference = base;
            binarize(&mut fast, 0.5);
            binarize_ref(&mut reference, 0.5);
            assert!(fast == reference, "n={n}");
        }
    }

    #[test]
    fn abs_diff_and_axpy_match_reference_bitwise() {
        for &n in LENGTHS {
            let b = values(n, 8);
            let mut fast = vec![0.0; n];
            let mut reference = vec![0.0; n];
            abs_diff_broadcast_into(&mut fast, 0.7, &b);
            abs_diff_broadcast_into_ref(&mut reference, 0.7, &b);
            assert!(fast == reference, "n={n}");

            let src = values(n, 9);
            let mut fast = values(n, 10);
            let mut reference = fast.clone();
            axpy(&mut fast, &src, -1.37);
            axpy_ref(&mut reference, &src, -1.37);
            assert!(fast == reference, "n={n}");
        }
    }

    #[test]
    fn butterfly_pass_matches_reference_bitwise() {
        for &n in LENGTHS {
            for inverse in [false, true] {
                let tw = complexes(n, 11);
                let u0 = complexes(n, 12);
                let v0 = complexes(n, 13);
                let (mut uf, mut vf) = (u0.clone(), v0.clone());
                let (mut ur, mut vr) = (u0, v0);
                butterfly_pass(&mut uf, &mut vf, &tw, inverse);
                butterfly_pass_ref(&mut ur, &mut vr, &tw, inverse);
                assert!(uf == ur && vf == vr, "n={n} inverse={inverse}");
            }
        }
    }

    #[test]
    fn realfft_split_matches_reference_bitwise() {
        for &m in LENGTHS {
            if m == 0 {
                continue;
            }
            let packed = complexes(m, 14);
            let tw = complexes(m, 15);
            let mut fast = vec![Complex::ZERO; m + 1];
            let mut reference = vec![Complex::ZERO; m + 1];
            realfft_split(&mut fast, &packed, &tw);
            realfft_split_ref(&mut reference, &packed, &tw);
            assert!(fast == reference, "m={m}");
        }
    }

    #[test]
    fn conv1d_matches_reference_bitwise() {
        let taps = [0.1, 0.2, 0.4, 0.2, 0.1];
        for &n in LENGTHS {
            if n == 0 {
                continue;
            }
            let src = values(n, 16);
            let mut fast = vec![0.0; n];
            let mut reference = vec![0.0; n];
            conv1d_clamped_into(&mut fast, &src, &taps);
            conv1d_clamped_into_ref(&mut reference, &src, &taps);
            assert!(fast == reference, "n={n}");
        }
    }

    #[test]
    fn fir_complex_dot_matches_reference_to_1e9() {
        for &n in LENGTHS {
            let taps = complexes(n, 17);
            let x = values(n, 18);
            let fast = fir_complex_dot(&taps, &x);
            let reference = fir_complex_dot_ref(&taps, &x);
            let scale = reference.norm().max(1.0);
            assert!(
                (fast.re - reference.re).abs() / scale < 1e-9
                    && (fast.im - reference.im).abs() / scale < 1e-9,
                "n={n}: {fast} vs {reference}"
            );
        }
    }

    #[test]
    fn folds_match_reference_bitwise() {
        for &n in LENGTHS {
            let xs = values(n, 19);
            assert!(fold_min(&xs) == fold_min_ref(&xs), "n={n}");
            assert!(fold_max(&xs) == fold_max_ref(&xs), "n={n}");
        }
        assert_eq!(fold_min(&[]), f64::INFINITY);
        assert_eq!(fold_max(&[]), f64::NEG_INFINITY);
    }

    #[test]
    fn envelope_charge_matches_reference_to_1e9() {
        for &n in LENGTHS {
            let xs = values(n, 20);
            let fast = envelope_charge(&xs, -0.5, 0.5);
            let reference = envelope_charge_ref(&xs, -0.5, 0.5);
            assert!(
                (fast - reference).abs() / reference.max(1.0) < 1e-9,
                "n={n}: {fast} vs {reference}"
            );
        }
    }
}
