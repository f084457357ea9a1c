//! Complex down-conversion front-end — the paper's Sec. VII-A optimization.
//!
//! "Obtaining the spectrogram by continuous STFT costs a high percentage of
//! CPU resources. To decrease computing overhead, a possible approach is to
//! utilize down-sampling technique to reduce the number of FFT points,
//! according to bandpass sampling theorem. More importantly, this operation
//! does not need to modify main methods proposed in this work."
//!
//! Exactly that: the 44.1 kHz stream is multiplied by `e^(−j2πf₀t)` to move
//! the 20 kHz carrier to 0 Hz, low-pass filtered, and decimated by `D`
//! (polyphase — the filter runs at the *output* rate). A small complex FFT
//! (8192/D points at a hop of 1024/D) then yields a spectrogram with the
//! same 5.38 Hz bin width and 23.2 ms hop as the full pipeline, so every
//! downstream stage — enhancement, MVCE, segmentation, the stored DTW
//! templates — is reused unchanged. Arithmetic drops by roughly the
//! decimation factor.

use crate::complex::Complex;
use crate::fft::Fft;
use crate::window::WindowKind;

/// A polyphase down-converting decimator: real pass-band in, complex
/// baseband out at `sample_rate / factor`.
#[derive(Debug, Clone)]
pub struct Downconverter {
    carrier_hz: f64,
    sample_rate: f64,
    factor: usize,
    /// FIR taps pre-rotated by the mixer phase relative to the tap centre:
    /// `h[t]·e^(−jω(t−half))`. The per-output absolute phase is applied by a
    /// single rotator recurrence, so no trigonometry runs in the inner loop.
    ctaps: Vec<Complex>,
    half: usize,
}

impl Downconverter {
    /// Creates a down-converter.
    ///
    /// `num_taps` sets the anti-alias FIR length (windowed sinc with a Hann
    /// window, cutoff at 80 % of the output Nyquist).
    ///
    /// # Panics
    ///
    /// Panics if `factor` < 2, `num_taps` is zero, or the carrier is not
    /// below Nyquist.
    pub fn new(carrier_hz: f64, sample_rate: f64, factor: usize, num_taps: usize) -> Self {
        assert!(factor >= 2, "decimation factor must be at least 2, got {factor}");
        assert!(num_taps > 0, "FIR needs at least one tap");
        assert!(
            carrier_hz > 0.0 && carrier_hz < sample_rate / 2.0,
            "carrier {carrier_hz} Hz outside (0, Nyquist)"
        );
        let out_rate = sample_rate / factor as f64;
        let cutoff = 0.4 * out_rate; // 80 % of the output Nyquist
        let taps = lowpass_taps(num_taps, cutoff / sample_rate);
        let w = std::f64::consts::TAU * carrier_hz / sample_rate;
        let half = num_taps / 2;
        let ctaps = taps
            .iter()
            .enumerate()
            .map(|(t, &h)| Complex::from_angle(-w * (t as f64 - half as f64)).scale(h))
            .collect();
        Downconverter { carrier_hz, sample_rate, factor, ctaps, half }
    }

    /// The paper-parameter front-end: 20 kHz carrier at 44.1 kHz decimated
    /// by 32 → 1 378 Hz complex baseband (covering ±689 Hz, comfortably
    /// containing the ±470 Hz ROI).
    pub fn paper(factor: usize) -> Self {
        Downconverter::new(20_000.0, 44_100.0, factor, 129)
    }

    /// Output (baseband) sample rate in Hz.
    pub fn output_rate(&self) -> f64 {
        self.sample_rate / self.factor as f64
    }

    /// The decimation factor.
    pub fn factor(&self) -> usize {
        self.factor
    }

    /// Half the FIR length — the causal-centred window's look-back, in
    /// input samples. Output `k` reads input samples
    /// `k·factor − half_taps ..= k·factor + half_taps`.
    pub fn half_taps(&self) -> usize {
        self.half
    }

    /// Down-converts and decimates `audio`, returning complex baseband
    /// samples at [`Downconverter::output_rate`].
    ///
    /// Polyphase evaluation: the FIR is only evaluated at output instants,
    /// so the cost is `num_taps × len/factor` multiply-accumulates.
    pub fn process(&self, audio: &[f64]) -> Vec<Complex> {
        let n_out = audio.len() / self.factor;
        let mut out = Vec::with_capacity(n_out);
        let w = std::f64::consts::TAU * self.carrier_hz / self.sample_rate;
        // Rotator recurrence: absolute mixer phase at each output centre,
        // advanced by one complex multiply per output (periodically
        // re-seeded exactly to stop drift).
        let step = Complex::from_angle(-w * self.factor as f64);
        let mut rotator = Complex::ONE;
        for k in 0..n_out {
            let centre = k * self.factor;
            if k % 1024 == 0 {
                rotator = Complex::from_angle(-w * centre as f64);
            }
            // Causal-centred FIR evaluated at the output instant only.
            // Interior windows (no clipping at either stream edge) run
            // through the SIMD-dispatched dot kernel; edge windows keep the
            // scalar skip loop. The streaming path applies the *same*
            // interior criterion so the two stay bitwise identical.
            let lo = centre as isize - self.half as isize;
            let acc = if lo >= 0 && lo as usize + self.ctaps.len() <= audio.len() {
                let start = lo as usize;
                crate::kernels::fir_complex_dot(&self.ctaps, &audio[start..start + self.ctaps.len()])
            } else {
                let mut acc = Complex::ZERO;
                for (t, &ct) in self.ctaps.iter().enumerate() {
                    let idx = lo + t as isize;
                    if idx < 0 || idx as usize >= audio.len() {
                        continue;
                    }
                    acc += ct.scale(audio[idx as usize]);
                }
                acc
            };
            out.push(acc * rotator);
            rotator *= step;
        }
        out
    }
}

/// A chunk-driven wrapper around [`Downconverter`] that emits baseband
/// samples as soon as their FIR window is fully covered by received audio.
///
/// Output `k` (centred on input sample `k·factor`) is emitted once sample
/// `k·factor + half` has arrived; [`StreamingDownconverter::finish`] flushes
/// the remaining outputs whose windows run past the end of the stream using
/// the same edge-skip semantics as the offline path. The concatenation of
/// all emitted samples is bitwise identical to
/// [`Downconverter::process`] over the concatenated input, independent of
/// how the audio is chunked: the mixer rotator recurrence (including its
/// periodic exact re-seeding) is replayed in the same order.
#[derive(Debug, Clone)]
pub struct StreamingDownconverter {
    /// The plan, shareable between streams (it is immutable).
    dc: std::sync::Arc<Downconverter>,
    buffer: Vec<f64>,
    /// Absolute input index of `buffer[0]`.
    base: usize,
    /// Absolute input samples received so far.
    total_in: usize,
    /// Next output index to emit.
    k: usize,
    rotator: Complex,
    step: Complex,
    w: f64,
}

impl StreamingDownconverter {
    /// Wraps a down-converter for chunked input.
    pub fn new(dc: Downconverter) -> Self {
        Self::with_shared_plan(std::sync::Arc::new(dc))
    }

    /// Like [`StreamingDownconverter::new`], sharing a plan with other
    /// streams (the FIR taps are built once per configuration).
    pub fn with_shared_plan(dc: std::sync::Arc<Downconverter>) -> Self {
        let w = std::f64::consts::TAU * dc.carrier_hz / dc.sample_rate;
        let step = Complex::from_angle(-w * dc.factor as f64);
        StreamingDownconverter {
            dc,
            buffer: Vec::new(),
            base: 0,
            total_in: 0,
            k: 0,
            rotator: Complex::ONE,
            step,
            w,
        }
    }

    /// The wrapped down-converter.
    pub fn inner(&self) -> &Downconverter {
        &self.dc
    }

    /// Baseband samples emitted so far.
    pub fn emitted(&self) -> usize {
        self.k
    }

    /// Appends input audio, pushing every newly complete baseband sample
    /// onto `out`.
    pub fn push(&mut self, samples: &[f64], out: &mut Vec<Complex>) {
        // Compaction below keeps the live tail short, so a chunk that does
        // not fit reserves exactly max(chunk, current length): a large chunk
        // takes just what it needs (doubling would leave the next chunk's
        // worth of never-used capacity resident in every stream), and small
        // appends still grow the buffer geometrically, because nothing is
        // reserved while they fit.
        if self.buffer.capacity() - self.buffer.len() < samples.len() {
            self.buffer.reserve_exact(samples.len().max(self.buffer.len()));
        }
        self.buffer.extend_from_slice(samples);
        self.total_in += samples.len();
        // Output k needs input samples up to k·factor + half inclusive.
        let before = self.k;
        while self.k * self.dc.factor + self.dc.half < self.total_in {
            self.emit_one(out);
        }
        if echowrite_trace::enabled() {
            let tick = echowrite_trace::samples_to_us(self.total_in as u64, self.dc.sample_rate);
            echowrite_trace::counter(
                echowrite_trace::Stage::Downconvert,
                "baseband_emitted",
                tick,
                (self.k - before) as f64,
            );
        }
        // Compact once the dead prefix dominates the live tail.
        let keep = (self.k * self.dc.factor).saturating_sub(self.dc.half);
        let dead = keep - self.base;
        if dead > self.buffer.len().saturating_sub(dead) && dead > 4096 {
            self.buffer.copy_within(dead.., 0);
            self.buffer.truncate(self.buffer.len() - dead);
            self.base = keep;
        }
    }

    /// Flushes the tail: emits every remaining output `k < total/factor`,
    /// skipping FIR taps that fall past the end of the stream exactly as the
    /// offline path does.
    pub fn finish(&mut self, out: &mut Vec<Complex>) {
        let n_out = self.total_in / self.dc.factor;
        while self.k < n_out {
            self.emit_one(out);
        }
    }

    /// Clears all state for a new session.
    pub fn reset(&mut self) {
        self.buffer.clear();
        self.base = 0;
        self.total_in = 0;
        self.k = 0;
        self.rotator = Complex::ONE;
    }

    /// Captures the dynamic state of this stream, detached from the
    /// down-converter plan (taps, factor, carrier are all config-derived).
    ///
    /// The buffer tail is copied verbatim together with its absolute base
    /// offset: the edge FIR path indexes the buffer by absolute stream
    /// position, so the offset must survive the round trip exactly for the
    /// resumed output to stay bitwise identical.
    pub fn export_state(&self) -> StreamingDownconverterState {
        StreamingDownconverterState {
            buffer: self.buffer.clone(),
            base: self.base as u64,
            total_in: self.total_in as u64,
            k: self.k as u64,
            rotator: self.rotator,
        }
    }

    /// Overwrites this stream's dynamic state with a previously exported
    /// one. The plan must match the one the state was exported under; the
    /// caller is responsible for that pairing. The rotator recurrence
    /// resumes from the exact saved value, so the periodic exact re-seeding
    /// replays in the same order as an uninterrupted stream.
    pub fn restore_state(&mut self, state: &StreamingDownconverterState) {
        self.buffer.clear();
        self.buffer.extend_from_slice(&state.buffer);
        self.base = state.base as usize;
        self.total_in = state.total_in as usize;
        self.k = state.k as usize;
        self.rotator = state.rotator;
    }

    fn emit_one(&mut self, out: &mut Vec<Complex>) {
        let centre = self.k * self.dc.factor;
        if self.k.is_multiple_of(1024) {
            self.rotator = Complex::from_angle(-self.w * centre as f64);
        }
        // Same interior/edge split as [`Downconverter::process`] — the
        // criterion is expressed against the absolute stream bounds so the
        // kernel sees the exact slice the offline path would, keeping the
        // concatenated output bitwise identical.
        let lo = centre as isize - self.dc.half as isize;
        let num_taps = self.dc.ctaps.len();
        let acc = if lo >= 0 && lo as usize + num_taps <= self.total_in {
            let start = lo as usize - self.base;
            crate::kernels::fir_complex_dot(&self.dc.ctaps, &self.buffer[start..start + num_taps])
        } else {
            let mut acc = Complex::ZERO;
            for (t, &ct) in self.dc.ctaps.iter().enumerate() {
                let idx = lo + t as isize;
                if idx < 0 || idx as usize >= self.total_in {
                    continue;
                }
                acc += ct.scale(self.buffer[idx as usize - self.base]);
            }
            acc
        };
        out.push(acc * self.rotator);
        self.rotator *= self.step;
        self.k += 1;
    }
}

/// Plan-independent dynamic state of a [`StreamingDownconverter`]:
/// everything a suspended stream needs to resume bitwise-identically once
/// paired with an identically configured plan. `step` and `w` are
/// config-derived and rebuilt at restore; the rotator is dynamic (its value
/// depends on how many outputs have been emitted since the last re-seed).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamingDownconverterState {
    /// Retained input samples (`buffer[0]` is absolute sample `base`).
    pub buffer: Vec<f64>,
    /// Absolute input index of `buffer[0]`.
    pub base: u64,
    /// Absolute input samples received so far.
    pub total_in: u64,
    /// Next output index to emit.
    pub k: u64,
    /// Current mixer rotator value.
    pub rotator: Complex,
}

/// Windowed-sinc (Hann) low-pass taps with normalized cutoff `fc` (cycles
/// per input sample), unity DC gain.
fn lowpass_taps(num_taps: usize, fc: f64) -> Vec<f64> {
    let m = (num_taps - 1) as f64;
    let window = WindowKind::Hann.coefficients(num_taps);
    let mut taps: Vec<f64> = (0..num_taps)
        .map(|i| {
            let x = i as f64 - m / 2.0;
            let sinc = if x.abs() < 1e-12 {
                2.0 * fc
            } else {
                (std::f64::consts::TAU * fc * x).sin() / (std::f64::consts::PI * x)
            };
            sinc * window[i]
        })
        .collect();
    let sum: f64 = taps.iter().sum();
    for t in &mut taps {
        *t /= sum;
    }
    taps
}

/// Short-time spectra of a complex baseband stream, producing magnitude
/// columns compatible with the full-rate pipeline.
///
/// Each column is `fft_size` bins **fft-shifted** so that row 0 is the most
/// negative frequency and the carrier (0 Hz baseband) sits at row
/// `fft_size/2`. Magnitudes are scaled by `scale` so they match the
/// full-rate STFT's absolute levels (the enhancement threshold α is
/// calibrated on those levels).
#[derive(Debug, Clone)]
pub struct BasebandStft {
    fft: Fft,
    window: Vec<f64>,
    hop: usize,
    scale: f64,
}

impl BasebandStft {
    /// Plans a baseband STFT.
    ///
    /// # Panics
    ///
    /// Panics if `fft_size` is not a power of two or `hop` is zero.
    pub fn new(fft_size: usize, hop: usize, scale: f64) -> Self {
        assert!(hop > 0, "hop must be positive");
        BasebandStft {
            fft: Fft::new(fft_size),
            window: WindowKind::Hann.coefficients(fft_size),
            hop,
            scale,
        }
    }

    /// FFT size.
    pub fn fft_size(&self) -> usize {
        self.fft.size()
    }

    /// Hop between successive frames, in baseband samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Number of complete frames available from `len` baseband samples.
    pub fn frame_count(&self, len: usize) -> usize {
        let size = self.fft.size();
        if len < size {
            0
        } else {
            (len - size) / self.hop + 1
        }
    }

    /// Allocates the per-worker FFT workspace for the `_into` entry points.
    pub fn make_scratch(&self) -> BasebandScratch {
        BasebandScratch { buf: vec![Complex::ZERO; self.fft.size()] }
    }

    /// Computes one frame's fft-shifted magnitudes restricted to shifted
    /// rows `[row_lo, row_hi]` inclusive (row 0 = most negative frequency,
    /// `fft_size/2` = carrier), writing into `out` without allocating.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len() != fft_size`, the row range is invalid, or
    /// `out.len() != row_hi - row_lo + 1`.
    pub fn frame_rows_into(
        &self,
        frame: &[Complex],
        row_lo: usize,
        row_hi: usize,
        scratch: &mut BasebandScratch,
        out: &mut [f64],
    ) {
        let size = self.fft.size();
        assert_eq!(frame.len(), size, "frame length mismatch");
        assert!(row_lo <= row_hi, "row_lo {row_lo} > row_hi {row_hi}");
        assert!(row_hi < size, "row_hi {row_hi} beyond fft size {size}");
        assert_eq!(out.len(), row_hi - row_lo + 1, "row output length mismatch");
        scratch.buf.resize(size, Complex::ZERO);
        crate::kernels::scale_complex_into(&mut scratch.buf, frame, &self.window);
        self.fft.forward(&mut scratch.buf);
        // fft-shift indexing: shifted row r reads FFT bin (r + size/2) % size.
        for (o, r) in out.iter_mut().zip(row_lo..=row_hi) {
            *o = scratch.buf[(r + size / 2) % size].norm() * self.scale;
        }
    }

    /// Computes shifted rows `[row_lo, row_hi]` of every complete frame into
    /// a flat frame-major buffer (frame `f` occupies
    /// `out[f*band .. (f+1)*band]`), allocating nothing.
    ///
    /// # Panics
    ///
    /// Panics if the row range is invalid or `out.len()` differs from
    /// `frame_count * band`.
    pub fn process_rows_into(
        &self,
        baseband: &[Complex],
        row_lo: usize,
        row_hi: usize,
        scratch: &mut BasebandScratch,
        out: &mut [f64],
    ) {
        assert!(row_lo <= row_hi, "row_lo {row_lo} > row_hi {row_hi}");
        let frames = self.frame_count(baseband.len());
        let band = row_hi - row_lo + 1;
        assert_eq!(
            out.len(),
            frames * band,
            "flat output length {} != frames {frames} × band {band}",
            out.len()
        );
        for (f, row) in out.chunks_exact_mut(band).enumerate() {
            let start = f * self.hop;
            self.frame_rows_into(
                &baseband[start..start + self.fft.size()],
                row_lo,
                row_hi,
                scratch,
                row,
            );
        }
    }

    /// Processes baseband samples into fft-shifted magnitude columns.
    pub fn process(&self, baseband: &[Complex]) -> Vec<Vec<f64>> {
        let size = self.fft.size();
        let frames = self.frame_count(baseband.len());
        let mut scratch = self.make_scratch();
        let mut out = Vec::with_capacity(frames);
        for f in 0..frames {
            let start = f * self.hop;
            let mut col = vec![0.0; size];
            self.frame_rows_into(
                &baseband[start..start + size],
                0,
                size - 1,
                &mut scratch,
                &mut col,
            );
            out.push(col);
        }
        out
    }
}

/// Reusable workspace for [`BasebandStft::frame_rows_into`].
#[derive(Debug, Clone)]
pub struct BasebandScratch {
    buf: Vec<Complex>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pass-band tone offset from the carrier must appear as a baseband
    /// complex exponential at the offset frequency.
    #[test]
    fn tone_moves_to_baseband_offset() {
        let dc = Downconverter::paper(32);
        let fs = 44_100.0;
        let offset = 100.0; // Hz above the carrier
        let n = 44_100;
        let audio: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * (20_000.0 + offset) * i as f64 / fs).sin())
            .collect();
        let bb = dc.process(&audio);
        assert_eq!(bb.len(), n / 32);
        // Measure the baseband frequency via phase advance per sample.
        let mid = bb.len() / 2;
        let dphi = (bb[mid + 1] * bb[mid].conj()).arg();
        let f_meas = dphi / std::f64::consts::TAU * dc.output_rate();
        assert!(
            (f_meas - offset).abs() < 2.0,
            "baseband frequency {f_meas} Hz, expected {offset}"
        );
        // Amplitude ≈ a/2 after mixing.
        let amp = bb[mid].norm();
        assert!((amp - 0.5).abs() < 0.05, "baseband amplitude {amp}");
    }

    #[test]
    fn negative_offset_has_negative_frequency() {
        let dc = Downconverter::paper(32);
        let fs = 44_100.0;
        let audio: Vec<f64> = (0..44_100)
            .map(|i| (std::f64::consts::TAU * (20_000.0 - 150.0) * i as f64 / fs).sin())
            .collect();
        let bb = dc.process(&audio);
        let mid = bb.len() / 2;
        let dphi = (bb[mid + 1] * bb[mid].conj()).arg();
        let f_meas = dphi / std::f64::consts::TAU * dc.output_rate();
        assert!((f_meas + 150.0).abs() < 2.0, "got {f_meas} Hz");
    }

    #[test]
    fn out_of_band_noise_is_attenuated() {
        let dc = Downconverter::paper(32);
        let fs = 44_100.0;
        // A strong 5 kHz audible tone, far outside the probe band.
        let audio: Vec<f64> = (0..44_100)
            .map(|i| (std::f64::consts::TAU * 5_000.0 * i as f64 / fs).sin())
            .collect();
        let bb = dc.process(&audio);
        let rms = (bb.iter().map(|z| z.norm_sqr()).sum::<f64>() / bb.len() as f64).sqrt();
        assert!(rms < 0.02, "out-of-band leakage rms {rms}");
    }

    #[test]
    fn lowpass_taps_normalized_and_symmetric() {
        let taps = lowpass_taps(65, 0.01);
        assert!((taps.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for i in 0..32 {
            assert!((taps[i] - taps[64 - i]).abs() < 1e-12);
        }
    }

    #[test]
    fn baseband_stft_centres_carrier() {
        let dc = Downconverter::paper(32);
        let fs = 44_100.0;
        let audio: Vec<f64> = (0..88_200)
            .map(|i| (std::f64::consts::TAU * 20_000.0 * i as f64 / fs).sin())
            .collect();
        let bb = dc.process(&audio);
        let stft = BasebandStft::new(256, 32, 32.0);
        let cols = stft.process(&bb);
        assert!(!cols.is_empty());
        for col in &cols {
            assert_eq!(col.len(), 256);
            let peak = col
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .unwrap()
                .0;
            assert_eq!(peak, 128, "carrier must land at the centre row");
        }
    }

    #[test]
    fn magnitude_scale_matches_full_rate_stft() {
        use crate::stft::{Stft, StftConfig};
        // A tone 100 Hz above the carrier with amplitude 0.02 (echo-like):
        // both front-ends should report comparable peak magnitudes.
        let fs = 44_100.0;
        let audio: Vec<f64> = (0..88_200)
            .map(|i| 0.02 * (std::f64::consts::TAU * 20_100.0 * i as f64 / fs).sin())
            .collect();

        let full = Stft::new(StftConfig::paper());
        let frames = full.process(&audio);
        let full_peak = frames[2].iter().cloned().fold(0.0f64, f64::max);

        let dc = Downconverter::paper(32);
        let bb = dc.process(&audio);
        let stft = BasebandStft::new(256, 32, 32.0);
        let cols = stft.process(&bb);
        let bb_peak = cols[2].iter().cloned().fold(0.0f64, f64::max);

        let ratio = bb_peak / full_peak;
        assert!(
            (0.8..1.25).contains(&ratio),
            "magnitude mismatch: full {full_peak}, baseband {bb_peak}"
        );
    }

    #[test]
    fn hop_alignment_matches_full_rate() {
        // 1024 input samples per hop = 32 baseband samples per hop at D=32:
        // frame counts should match the full-rate STFT.
        use crate::stft::{Stft, StftConfig};
        let audio = vec![0.0; 44_100];
        let full = Stft::new(StftConfig::paper());
        let n_full = full.process(&audio).len();
        let dc = Downconverter::paper(32);
        let bb = dc.process(&audio);
        let n_bb = BasebandStft::new(256, 32, 32.0).process(&bb).len();
        assert!(
            (n_full as i64 - n_bb as i64).abs() <= 1,
            "frame counts diverge: {n_full} vs {n_bb}"
        );
    }

    #[test]
    fn rows_into_matches_process_slices() {
        let dc = Downconverter::paper(32);
        let fs = 44_100.0;
        let audio: Vec<f64> = (0..88_200)
            .map(|i| {
                0.02 * (std::f64::consts::TAU * 20_100.0 * i as f64 / fs).sin()
                    + (std::f64::consts::TAU * 20_000.0 * i as f64 / fs).sin()
            })
            .collect();
        let bb = dc.process(&audio);
        let stft = BasebandStft::new(256, 32, 32.0);
        let reference = stft.process(&bb);

        let (lo, hi) = (110usize, 150usize);
        let frames = stft.frame_count(bb.len());
        assert_eq!(frames, reference.len());
        let band = hi - lo + 1;
        let mut flat = vec![0.0; frames * band];
        let mut scratch = stft.make_scratch();
        stft.process_rows_into(&bb, lo, hi, &mut scratch, &mut flat);
        for (f, cols) in reference.iter().enumerate() {
            for r in 0..band {
                assert_eq!(
                    flat[f * band + r],
                    cols[lo + r],
                    "frame {f} shifted row {}",
                    lo + r
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "row output length mismatch")]
    fn frame_rows_into_rejects_wrong_output_len() {
        let stft = BasebandStft::new(64, 16, 1.0);
        let frame = vec![Complex::ZERO; 64];
        let mut scratch = stft.make_scratch();
        let mut out = vec![0.0; 3];
        stft.frame_rows_into(&frame, 10, 20, &mut scratch, &mut out);
    }

    fn chirp(n: usize) -> Vec<f64> {
        let fs = 44_100.0;
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                0.02 * (std::f64::consts::TAU * (20_000.0 + 120.0 * (3.0 * t).sin()) * t).sin()
                    + (std::f64::consts::TAU * 20_000.0 * t).sin()
            })
            .collect()
    }

    #[test]
    fn streaming_downconverter_matches_offline_bitwise() {
        let audio = chirp(70_001);
        let dc = Downconverter::paper(32);
        let offline = dc.process(&audio);

        for chunks in [
            vec![1usize, 7, 31, 97, 1024, 5000],
            vec![44_100],
            vec![3, 3, 3],
            vec![8192],
        ] {
            let mut stream = StreamingDownconverter::new(dc.clone());
            let mut out = Vec::new();
            let mut pos = 0usize;
            let mut ci = 0usize;
            while pos < audio.len() {
                let len = chunks[ci % chunks.len()].min(audio.len() - pos);
                ci += 1;
                stream.push(&audio[pos..pos + len], &mut out);
                pos += len;
            }
            stream.finish(&mut out);
            assert_eq!(out.len(), offline.len(), "chunking {chunks:?}");
            for (i, (s, o)) in out.iter().zip(&offline).enumerate() {
                assert!(
                    s.re == o.re && s.im == o.im,
                    "sample {i} diverges under chunking {chunks:?}: {s:?} vs {o:?}"
                );
            }
        }
    }

    #[test]
    fn streaming_downconverter_buffer_stays_bounded() {
        let dc = Downconverter::paper(32);
        let mut stream = StreamingDownconverter::new(dc);
        let chunk = vec![0.0; 4410];
        let mut out = Vec::new();
        for _ in 0..200 {
            stream.push(&chunk, &mut out);
            out.clear();
        }
        assert!(
            stream.buffer.len() < 20_000,
            "buffer grew to {}",
            stream.buffer.len()
        );
    }

    #[test]
    fn streaming_downconverter_small_pushes_grow_geometrically() {
        let dc = Downconverter::paper(32);
        let mut stream = StreamingDownconverter::new(dc);
        let mut out = Vec::new();
        let (mut growths, mut capacity) = (0, stream.buffer.capacity());
        for i in 0..20_000 {
            stream.push(&[(i as f64 * 0.1).sin()], &mut out);
            if stream.buffer.capacity() != capacity {
                capacity = stream.buffer.capacity();
                growths += 1;
            }
        }
        // Doubling from one sample to the ~8.2 K compaction threshold takes
        // about 14 growths; re-reserving on every push would take thousands.
        assert!(growths <= 20, "buffer capacity changed {growths} times");
    }

    #[test]
    fn streaming_downconverter_reset_restarts_cleanly() {
        let audio = chirp(20_000);
        let dc = Downconverter::paper(32);
        let offline = dc.process(&audio);
        let mut stream = StreamingDownconverter::new(dc);
        let mut out = Vec::new();
        stream.push(&audio[..9_999], &mut out);
        stream.reset();
        out.clear();
        stream.push(&audio, &mut out);
        stream.finish(&mut out);
        assert_eq!(out.len(), offline.len());
        for (s, o) in out.iter().zip(&offline) {
            assert!(s.re == o.re && s.im == o.im);
        }
    }

    #[test]
    fn state_roundtrip_resumes_bitwise() {
        let audio = chirp(70_001);
        let dc = Downconverter::paper(32);
        let offline = dc.process(&audio);

        // Suspend/restore at points that straddle compaction and rotator
        // re-seed boundaries.
        for cut in [1_000usize, 33_000, 65_537] {
            let mut first = StreamingDownconverter::new(dc.clone());
            let mut out = Vec::new();
            for chunk in audio[..cut].chunks(997) {
                first.push(chunk, &mut out);
            }
            let state = first.export_state();
            drop(first);
            let mut resumed = StreamingDownconverter::new(dc.clone());
            resumed.restore_state(&state);
            for chunk in audio[cut..].chunks(997) {
                resumed.push(chunk, &mut out);
            }
            resumed.finish(&mut out);
            assert_eq!(out.len(), offline.len(), "cut {cut}");
            for (i, (s, o)) in out.iter().zip(&offline).enumerate() {
                assert!(
                    s.re == o.re && s.im == o.im,
                    "cut {cut} sample {i} diverges: {s:?} vs {o:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "factor must be at least 2")]
    fn rejects_unit_factor() {
        Downconverter::new(20_000.0, 44_100.0, 1, 9);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_super_nyquist_carrier() {
        Downconverter::new(30_000.0, 44_100.0, 8, 9);
    }
}
