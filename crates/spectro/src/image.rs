//! Two-dimensional image operations on spectrograms.
//!
//! These are the building blocks of the paper's Doppler-enhancement chain
//! (Sec. III-A): 2-D median and Gaussian filtering, spectral subtraction of
//! static frames, energy thresholding, zero-one normalization, binarization,
//! and morphological hole filling via flood fill [Soille, 2013].

use crate::spectrogram::Spectrogram;
use echowrite_dsp::filters::gaussian_kernel;
use echowrite_dsp::kernels;

/// Applies the paper's 3×3 median filter (edges replicate).
///
/// Runs the [`echowrite_dsp::kernels`] median with the image's rows as the
/// kernel's columns: a clamped 3×3 window holds the same nine values
/// whichever axis is called vertical, so each row's sorted horizontal
/// triples are computed once and serve the three output rows around it,
/// three rows of them live at a time. The output is bitwise the median
/// under `f64::total_cmp` of each gathered window.
pub fn median_filter_2d(src: &Spectrogram) -> Spectrogram {
    let (rows, cols) = (src.rows(), src.cols());
    let mut out = src.clone();
    if rows == 0 || cols == 0 {
        return out;
    }
    let data = src.data();
    let row = |r: usize| &data[r * cols..(r + 1) * cols];
    // Row i's sorted triples live in slot i % 3; row r + 1 takes the slot
    // of row r − 2, which no later window reads.
    let width = 3 * cols;
    let slot = |i: usize| (i % 3) * width..(i % 3 + 1) * width;
    let mut slots = vec![0i64; 3 * width];
    kernels::median3_sort_into(&mut slots[slot(0)], row(0));
    let out_data = out.data_mut();
    for r in 0..rows {
        let below = (r + 1).min(rows - 1);
        if below > r {
            kernels::median3_sort_into(&mut slots[slot(below)], row(below));
        }
        kernels::median3_merge_into(
            &mut out_data[r * cols..(r + 1) * cols],
            &slots[slot(r.saturating_sub(1))],
            &slots[slot(r)],
            &slots[slot(below)],
        );
    }
    out
}

/// Applies a separable Gaussian blur with an odd `size`×`size` kernel
/// (σ = size/6, edges replicate).
///
/// # Panics
///
/// Panics if `size` is even or zero.
pub fn gaussian_filter_2d(src: &Spectrogram, size: usize) -> Spectrogram {
    let mut out = src.clone();
    gaussian_filter_2d_in_place(&mut out, size);
    out
}

/// In-place separable Gaussian blur (same semantics as
/// [`gaussian_filter_2d`]): one horizontal and one vertical pass, with a
/// single line buffer as the only allocation.
///
/// # Panics
///
/// Panics if `size` is even or zero.
pub fn gaussian_filter_2d_in_place(s: &mut Spectrogram, size: usize) {
    let kernel = gaussian_kernel(size, None);
    let (rows, cols) = (s.rows(), s.cols());
    if cols == 0 {
        return;
    }
    let data = s.data_mut();
    let mut line = vec![0.0f64; cols.max(rows)];
    let mut conv = vec![0.0f64; cols.max(rows)];

    // Horizontal pass, one row at a time, through the SIMD-dispatched
    // clamped convolution (edge clamping matches the old scalar loop).
    for r in 0..rows {
        let row = &data[r * cols..(r + 1) * cols];
        echowrite_dsp::kernels::conv1d_clamped_into(&mut conv[..cols], row, &kernel);
        data[r * cols..(r + 1) * cols].copy_from_slice(&conv[..cols]);
    }
    // Vertical pass, one column at a time.
    for c in 0..cols {
        for (r, l) in line[..rows].iter_mut().enumerate() {
            *l = data[r * cols + c];
        }
        echowrite_dsp::kernels::conv1d_clamped_into(&mut conv[..rows], &line[..rows], &kernel);
        for (r, &v) in conv[..rows].iter().enumerate() {
            data[r * cols + c] = v;
        }
    }
}

/// Spectral subtraction: computes the per-row mean of the first
/// `static_frames` columns and subtracts it from every column, clamping at
/// zero. Suppresses the carrier line, direct leakage, and static multipath
/// (paper: "subtract STFT of static frames from each following frame").
///
/// # Panics
///
/// Panics if `static_frames` is zero or exceeds the column count.
pub fn subtract_static(src: &Spectrogram, static_frames: usize) -> Spectrogram {
    let mut out = src.clone();
    subtract_static_in_place(&mut out, static_frames);
    out
}

/// In-place variant of [`subtract_static`].
///
/// # Panics
///
/// Panics if `static_frames` is zero or exceeds the column count.
pub fn subtract_static_in_place(s: &mut Spectrogram, static_frames: usize) {
    assert!(
        static_frames > 0 && static_frames <= s.cols(),
        "static_frames {static_frames} out of range for {} columns",
        s.cols()
    );
    let cols = s.cols();
    for row in s.data_mut().chunks_exact_mut(cols) {
        let mean: f64 = row[..static_frames].iter().sum::<f64>() / static_frames as f64;
        echowrite_dsp::kernels::subtract_clamp(row, mean);
    }
}

/// Subtracts an externally supplied per-row background from every column,
/// clamping at zero — the streaming variant of [`subtract_static`], where
/// the background was frozen from the session's opening static frames.
///
/// # Panics
///
/// Panics if `background.len() != src.rows()`.
pub fn subtract_background(src: &Spectrogram, background: &[f64]) -> Spectrogram {
    let mut out = src.clone();
    subtract_background_in_place(&mut out, background);
    out
}

/// In-place variant of [`subtract_background`].
///
/// # Panics
///
/// Panics if `background.len() != s.rows()`.
pub fn subtract_background_in_place(s: &mut Spectrogram, background: &[f64]) {
    assert_eq!(background.len(), s.rows(), "background row-count mismatch");
    let cols = s.cols();
    if cols == 0 {
        return;
    }
    for (row, &bg) in s.data_mut().chunks_exact_mut(cols).zip(background) {
        echowrite_dsp::kernels::subtract_clamp(row, bg);
    }
}

/// Per-row mean of the first `static_frames` columns — the background
/// estimate that [`subtract_static`] uses internally.
///
/// # Panics
///
/// Panics if `static_frames` is zero or exceeds the column count.
pub fn row_means(src: &Spectrogram, static_frames: usize) -> Vec<f64> {
    assert!(
        static_frames > 0 && static_frames <= src.cols(),
        "static_frames {static_frames} out of range for {} columns",
        src.cols()
    );
    (0..src.rows())
        .map(|r| (0..static_frames).map(|c| src.get(r, c)).sum::<f64>() / static_frames as f64)
        .collect()
}

/// Zeroes every cell strictly below `alpha` (the paper's hardware-noise
/// energy threshold, α = 8 for their device).
pub fn threshold(src: &Spectrogram, alpha: f64) -> Spectrogram {
    let mut out = src.clone();
    threshold_in_place(&mut out, alpha);
    out
}

/// In-place variant of [`threshold`].
pub fn threshold_in_place(s: &mut Spectrogram, alpha: f64) {
    echowrite_dsp::kernels::threshold_zero(s.data_mut(), alpha);
}

/// Rescales the whole matrix into `[0, 1]` (paper's "zero-one
/// normalization"). A constant matrix becomes all zeros.
pub fn normalize_zero_one(src: &Spectrogram) -> Spectrogram {
    let mut out = src.clone();
    echowrite_dsp::util::normalize_zero_one(out.data_mut());
    out
}

/// Binarizes at `t`: cells ≥ `t` become 1.0, the rest 0.0.
pub fn binarize(src: &Spectrogram, t: f64) -> Spectrogram {
    let mut out = src.clone();
    binarize_in_place(&mut out, t);
    out
}

/// In-place variant of [`binarize`].
pub fn binarize_in_place(s: &mut Spectrogram, t: f64) {
    echowrite_dsp::kernels::binarize(s.data_mut(), t);
}

/// Fills holes in a binary image: zero-regions not 4-connected to the image
/// border become 1 (flood fill on background pixels, paper's reference
/// [Soille 2013]).
///
/// # Panics
///
/// Panics if the input is not binary.
pub fn fill_holes(src: &Spectrogram) -> Spectrogram {
    let mut out = src.clone();
    fill_holes_in_place(&mut out);
    out
}

/// In-place variant of [`fill_holes`].
///
/// # Panics
///
/// Panics if the input is not binary.
pub fn fill_holes_in_place(s: &mut Spectrogram) {
    assert!(s.is_binary(), "fill_holes requires a binary spectrogram");
    let (rows, cols) = (s.rows(), s.cols());
    if rows == 0 || cols == 0 {
        return;
    }
    // Flood from all border background pixels.
    let data = s.data_mut();
    let mut outside = vec![false; rows * cols];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    let try_seed = |r: usize, c: usize, stack: &mut Vec<(usize, usize)>, data: &[f64]| {
        if data[r * cols + c] == 0.0 {
            stack.push((r, c));
        }
    };
    for c in 0..cols {
        try_seed(0, c, &mut stack, data);
        try_seed(rows - 1, c, &mut stack, data);
    }
    for r in 0..rows {
        try_seed(r, 0, &mut stack, data);
        try_seed(r, cols - 1, &mut stack, data);
    }
    while let Some((r, c)) = stack.pop() {
        let idx = r * cols + c;
        if outside[idx] || data[idx] != 0.0 {
            continue;
        }
        outside[idx] = true;
        if r > 0 {
            stack.push((r - 1, c));
        }
        if r + 1 < rows {
            stack.push((r + 1, c));
        }
        if c > 0 {
            stack.push((r, c - 1));
        }
        if c + 1 < cols {
            stack.push((r, c + 1));
        }
    }
    for (v, &out_flag) in data.iter_mut().zip(&outside) {
        if *v == 0.0 && !out_flag {
            *v = 1.0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_rows(rows: &[&[f64]]) -> Spectrogram {
        // Convert row-major literals into the column-based constructor.
        let n_rows = rows.len();
        let n_cols = rows[0].len();
        let mut s = Spectrogram::zeros(n_rows, n_cols);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n_cols);
            for (c, &v) in row.iter().enumerate() {
                s.set(r, c, v);
            }
        }
        s
    }

    #[test]
    fn median_removes_salt_noise() {
        let s = from_rows(&[
            &[0.0, 0.0, 0.0],
            &[0.0, 9.0, 0.0],
            &[0.0, 0.0, 0.0],
        ]);
        let f = median_filter_2d(&s);
        assert_eq!(f.get(1, 1), 0.0);
    }

    /// Every shape from 1×1 up, edge rows and columns included, against
    /// gathering each clamped window and selecting its median under
    /// `total_cmp` — with signed zeros, NaNs, infinities and ties.
    #[test]
    fn median_equals_gather_and_select_bitwise() {
        let pool = [0.0, -0.0, 1.0, 1.0, -2.5, f64::NAN, -f64::NAN, f64::INFINITY, 7.0, 3.0];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for rows in 1..=6usize {
            for cols in 1..=6usize {
                let mut s = Spectrogram::zeros(rows, cols);
                for r in 0..rows {
                    for c in 0..cols {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        s.set(r, c, pool[(state % pool.len() as u64) as usize]);
                    }
                }
                let f = median_filter_2d(&s);
                for r in 0..rows {
                    for c in 0..cols {
                        let mut w = [0.0f64; 9];
                        for (i, dr) in [-1isize, 0, 1].iter().enumerate() {
                            for (j, dc) in [-1isize, 0, 1].iter().enumerate() {
                                let rr = (r as isize + dr).clamp(0, rows as isize - 1) as usize;
                                let cc = (c as isize + dc).clamp(0, cols as isize - 1) as usize;
                                w[3 * i + j] = s.get(rr, cc);
                            }
                        }
                        let (_, m, _) = w.select_nth_unstable_by(4, |a, b| a.total_cmp(b));
                        let got = f.get(r, c).to_bits();
                        assert_eq!(got, m.to_bits(), "{rows}×{cols} at ({r}, {c})");
                    }
                }
            }
        }
    }

    #[test]
    fn median_preserves_solid_blocks() {
        let s = from_rows(&[
            &[5.0, 5.0, 5.0, 0.0],
            &[5.0, 5.0, 5.0, 0.0],
            &[5.0, 5.0, 5.0, 0.0],
        ]);
        let f = median_filter_2d(&s);
        assert_eq!(f.get(1, 1), 5.0);
        assert_eq!(f.get(0, 0), 5.0); // replicate edges keep the block
    }

    #[test]
    fn gaussian_preserves_flat_image() {
        let s = from_rows(&[&[3.0; 6]; 5].map(|r| r as &[f64]));
        let g = gaussian_filter_2d(&s, 5);
        for r in 0..5 {
            for c in 0..6 {
                assert!((g.get(r, c) - 3.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn gaussian_spreads_impulse_symmetrically() {
        let mut s = Spectrogram::zeros(7, 7);
        s.set(3, 3, 1.0);
        let g = gaussian_filter_2d(&s, 5);
        assert!(g.get(3, 3) > g.get(3, 4));
        assert!((g.get(3, 2) - g.get(3, 4)).abs() < 1e-12);
        assert!((g.get(2, 3) - g.get(4, 3)).abs() < 1e-12);
        // Mass is conserved away from edges.
        let total: f64 = g.data().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn subtract_static_removes_constant_rows() {
        // Row 0 is a static carrier at 10; row 1 has a burst in column 3.
        let s = from_rows(&[
            &[10.0, 10.0, 10.0, 10.0],
            &[1.0, 1.0, 1.0, 6.0],
        ]);
        let out = subtract_static(&s, 2);
        for c in 0..4 {
            assert_eq!(out.get(0, c), 0.0, "carrier row should vanish");
        }
        assert_eq!(out.get(1, 3), 5.0);
        assert_eq!(out.get(1, 0), 0.0);
    }

    #[test]
    fn subtract_static_clamps_at_zero() {
        let s = from_rows(&[&[4.0, 1.0]]);
        let out = subtract_static(&s, 1);
        assert_eq!(out.get(0, 1), 0.0); // 1 − 4 clamps to 0
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn subtract_static_validates_count() {
        subtract_static(&Spectrogram::zeros(1, 2), 3);
    }

    #[test]
    fn threshold_zeroes_small_values() {
        let s = from_rows(&[&[7.9, 8.0, 8.1]]);
        let out = threshold(&s, 8.0);
        assert_eq!(out.get(0, 0), 0.0);
        assert_eq!(out.get(0, 1), 8.0);
        assert_eq!(out.get(0, 2), 8.1);
    }

    #[test]
    fn normalize_and_binarize() {
        let s = from_rows(&[&[2.0, 4.0, 18.0]]);
        let n = normalize_zero_one(&s);
        assert_eq!(n.get(0, 0), 0.0);
        assert_eq!(n.get(0, 2), 1.0);
        let b = binarize(&n, 0.15);
        assert!(b.is_binary());
        assert_eq!(b.get(0, 0), 0.0);
        assert_eq!(b.get(0, 1), 0.0); // 0.125 < 0.15
        assert_eq!(b.get(0, 2), 1.0);
    }

    #[test]
    fn fill_holes_fills_enclosed_background() {
        let s = from_rows(&[
            &[1.0, 1.0, 1.0, 0.0],
            &[1.0, 0.0, 1.0, 0.0],
            &[1.0, 1.0, 1.0, 0.0],
        ]);
        let f = fill_holes(&s);
        assert_eq!(f.get(1, 1), 1.0, "enclosed hole must fill");
        assert_eq!(f.get(0, 3), 0.0, "border-connected background must stay");
        assert_eq!(f.get(1, 3), 0.0);
    }

    #[test]
    fn fill_holes_ignores_open_bays() {
        // A "C" shape: background connects to the border through the gap.
        let s = from_rows(&[
            &[1.0, 1.0, 1.0],
            &[1.0, 0.0, 0.0],
            &[1.0, 1.0, 1.0],
        ]);
        let f = fill_holes(&s);
        assert_eq!(f.get(1, 1), 0.0);
        assert_eq!(f.get(1, 2), 0.0);
    }

    #[test]
    fn fill_holes_diagonal_gap_is_not_a_seal() {
        // Foreground touching only diagonally does not enclose (4-conn).
        let s = from_rows(&[
            &[1.0, 0.0, 1.0],
            &[0.0, 0.0, 0.0],
            &[1.0, 0.0, 1.0],
        ]);
        let f = fill_holes(&s);
        assert_eq!(f.get(1, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "binary")]
    fn fill_holes_rejects_grayscale() {
        fill_holes(&from_rows(&[&[0.5]]));
    }
}
