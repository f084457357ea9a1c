//! The offline signal pipeline with per-stage timing.
//!
//! [`Pipeline::analyze`] runs audio → STFT → ROI → enhancement → MVCE →
//! segmentation and reports how long each stage took — the measurement
//! behind the paper's Fig. 19 (running time of different parts), where
//! signal processing dominates with > 90 % of the budget.

use crate::config::{EchoWriteConfig, Frontend};
use echowrite_dsp::downconvert::{BasebandStft, Downconverter};
use echowrite_dsp::Stft;
use echowrite_profile::mvce::extract_profile_with_guard;
use echowrite_profile::{DopplerProfile, Segmenter, Stopwatch, StrokeSegment};
use echowrite_spectro::{Enhancer, Spectrogram};

/// Wall-clock cost of each pipeline stage, in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTiming {
    /// STFT framing + FFTs + ROI crop.
    pub stft_ms: f64,
    /// Spectrogram enhancement (median, subtraction, threshold, Gaussian,
    /// binarize, flood fill).
    pub enhance_ms: f64,
    /// MVCE contour extraction + smoothing.
    pub profile_ms: f64,
    /// Acceleration-based segmentation.
    pub segment_ms: f64,
    /// DTW matching (filled in by the engine).
    pub dtw_ms: f64,
    /// Word decoding (filled in by the engine).
    pub decode_ms: f64,
}

impl StageTiming {
    /// Total across all stages.
    pub fn total_ms(&self) -> f64 {
        self.stft_ms + self.enhance_ms + self.profile_ms + self.segment_ms + self.dtw_ms
            + self.decode_ms
    }

    /// Fraction of the total spent in signal processing (STFT through
    /// profile extraction) — the paper reports > 90 %.
    pub fn signal_processing_fraction(&self) -> f64 {
        let total = self.total_ms();
        if total <= 0.0 {
            return 0.0;
        }
        (self.stft_ms + self.enhance_ms + self.profile_ms) / total
    }
}

/// Everything the signal pipeline extracts from one audio trace.
#[derive(Debug, Clone)]
pub struct Analysis {
    /// The enhanced binary ROI spectrogram.
    pub binary: Spectrogram,
    /// The smoothed Doppler profile.
    pub profile: DopplerProfile,
    /// Detected stroke segments.
    pub segments: Vec<StrokeSegment>,
    /// Per-stage timing.
    pub timing: StageTiming,
}

/// The audio → segments signal pipeline.
///
/// # Example
///
/// ```
/// use echowrite::{Pipeline, EchoWriteConfig};
/// let p = Pipeline::new(EchoWriteConfig::paper());
/// // A silent half-second: no strokes detected.
/// let silence = vec![0.0; 22_050];
/// let a = p.analyze(&silence);
/// assert!(a.segments.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: EchoWriteConfig,
    /// The STFT plan, shared (via [`Pipeline::shared_stft`]) with every
    /// streaming session built on this engine so twiddle tables and window
    /// coefficients are planned once per configuration, not per session.
    stft: std::sync::Arc<Stft>,
    /// The decimating front-end's plan, present for
    /// `Frontend::Downconverted`; shared with streaming sessions like the
    /// STFT plan (see [`Pipeline::shared_downconvert`]).
    downconvert: Option<SharedDownconvert>,
    enhancer: Enhancer,
    segmenter: Segmenter,
}

impl Pipeline {
    /// Builds the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: EchoWriteConfig) -> Self {
        if let Err(msg) = config.validate() {
            // echolint: allow(no-panic-path) -- documented `# Panics` contract of Pipeline::new
            panic!("invalid EchoWrite config: {msg}");
        }
        let stft = std::sync::Arc::new(Stft::new(config.stft));
        let enhancer = Enhancer::new(config.enhance);
        let segmenter = Segmenter::new(config.segment);
        let downconvert = match config.frontend {
            Frontend::FullStft => None,
            Frontend::Downconverted { factor } => Some(make_downconvert(&config, factor)),
        };
        Pipeline { config, stft, downconvert, enhancer, segmenter }
    }

    /// A handle to the shared STFT plan, for streaming sessions that want
    /// to reuse this engine's twiddle tables and window instead of planning
    /// their own (the plan is immutable, so sharing is output-neutral).
    pub fn shared_stft(&self) -> std::sync::Arc<Stft> {
        std::sync::Arc::clone(&self.stft)
    }

    /// Handles to the shared decimating front-end plan (FIR taps, baseband
    /// STFT twiddles and window), present for `Frontend::Downconverted`.
    pub(crate) fn shared_downconvert(&self) -> Option<SharedDownconvert> {
        self.downconvert.clone()
    }

    /// Builds the ROI spectrogram through the configured front-end.
    ///
    /// Only the ROI rows are ever computed — full half-spectrum columns are
    /// never materialized — and the frame loop is split across
    /// `config.parallelism` workers writing disjoint frame-major chunks, so
    /// the result is bitwise identical for every worker count.
    ///
    /// Returns `None` when the audio is shorter than one analysis frame.
    // echolint: entry
    pub fn roi_spectrogram(&self, audio: &[f64]) -> Option<Spectrogram> {
        let cfg = self.stft.config();
        let (lo, hi, carrier_bin) = roi_bins(&self.config);
        let band = hi - lo + 1;
        match &self.downconvert {
            None => {
                let frames = self.stft.frame_count(audio.len());
                if frames == 0 {
                    return None;
                }
                let mut flat = vec![0.0; frames * band];
                let workers = self.config.parallelism.workers(frames);
                let (stft, hop, size) = (&self.stft, cfg.hop, cfg.fft_size);
                fill_frame_major(
                    &mut flat,
                    frames,
                    band,
                    workers,
                    || stft.make_scratch(),
                    |f, scratch, row| {
                        let start = f * hop;
                        stft.frame_band_into(&audio[start..start + size], lo, hi, scratch, row);
                    },
                );
                let mut spec = Spectrogram::from_frame_major(band, frames, &flat);
                spec.set_carrier_row(carrier_bin - lo);
                spec.set_metadata(cfg.sample_rate / cfg.fft_size as f64, cfg.hop_seconds());
                Some(spec)
            }
            Some((dc, bb)) => {
                let baseband = dc.process(audio);
                let frames = bb.frame_count(baseband.len());
                if frames == 0 {
                    return None;
                }
                // Replicate the full-rate ROI row geometry exactly so the
                // stored templates remain valid: same number of rows above
                // and below the carrier, same bin width, same hop.
                let below = carrier_bin - lo;
                let above = hi - carrier_bin;
                let centre = bb.fft_size() / 2;
                let (row_lo, row_hi) = (centre - below, centre + above);
                let mut flat = vec![0.0; frames * band];
                let workers = self.config.parallelism.workers(frames);
                let baseband = &baseband[..];
                fill_frame_major(
                    &mut flat,
                    frames,
                    band,
                    workers,
                    || bb.make_scratch(),
                    |f, scratch, row| {
                        let start = f * bb.hop();
                        bb.frame_rows_into(
                            &baseband[start..start + bb.fft_size()],
                            row_lo,
                            row_hi,
                            scratch,
                            row,
                        );
                    },
                );
                let mut spec = Spectrogram::from_frame_major(band, frames, &flat);
                spec.set_carrier_row(below);
                spec.set_metadata(cfg.sample_rate / cfg.fft_size as f64, cfg.hop_seconds());
                Some(spec)
            }
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &EchoWriteConfig {
        &self.config
    }

    /// Runs the signal pipeline on raw microphone samples.
    ///
    /// Traces shorter than one STFT frame produce an empty analysis.
    pub fn analyze(&self, audio: &[f64]) -> Analysis {
        self.analyze_with_background(audio, None)
    }

    /// Estimates the frozen static background from the opening frames of a
    /// session (for streaming use). Returns `None` for audio shorter than
    /// one frame.
    pub fn estimate_background(&self, audio: &[f64]) -> Option<Vec<f64>> {
        let spec = self.roi_spectrogram(audio)?;
        self.enhancer.estimate_background(&spec)
    }

    /// [`Pipeline::analyze`] with an optional frozen background replacing
    /// the in-buffer static frames (streaming sessions trim their buffers,
    /// so the front is no longer guaranteed static).
    pub fn analyze_with_background(&self, audio: &[f64], background: Option<&[f64]>) -> Analysis {
        let mut timing = StageTiming::default();

        let t0 = Stopwatch::start();
        let spec = self.roi_spectrogram(audio).unwrap_or_else(|| {
            let rows = 2 * self.config.guard_bins + 3;
            Spectrogram::zeros(rows, 0)
        });
        timing.stft_ms = t0.elapsed_ms();
        debug_assert!(
            spec.data().iter().all(|v| v.is_finite()),
            "STFT stage produced a non-finite magnitude"
        );

        let t1 = Stopwatch::start();
        let binary = if spec.cols() == 0 {
            spec
        } else {
            match background {
                Some(bg) => self.enhancer.enhance_with_background(&spec, bg),
                None => self.enhancer.enhance(&spec),
            }
        };
        timing.enhance_ms = t1.elapsed_ms();
        debug_assert!(
            binary.data().iter().all(|&v| v == 0.0 || v == 1.0),
            "enhancement stage produced a non-binary spectrogram"
        );

        let t2 = Stopwatch::start();
        let profile = extract_profile_with_guard(&binary, self.config.guard_bins);
        timing.profile_ms = t2.elapsed_ms();
        debug_assert!(
            profile.shifts().iter().all(|v| v.is_finite()),
            "profile extraction produced a non-finite Doppler shift"
        );

        let t3 = Stopwatch::start();
        let segments = self.segmenter.segment(&profile);
        timing.segment_ms = t3.elapsed_ms();
        debug_assert!(
            segments
                .iter()
                .all(|s| s.start < s.end && s.end <= profile.len()),
            "segmentation produced an out-of-range or empty segment"
        );

        if echowrite_trace::enabled() {
            use echowrite_trace::Stage;
            let tick =
                echowrite_trace::samples_to_us(audio.len() as u64, self.config.stft.sample_rate);
            let ms_to_us = |ms: f64| (ms * 1_000.0) as u64;
            echowrite_trace::span(Stage::Stft, "offline_stft", tick, ms_to_us(timing.stft_ms), 0.0);
            echowrite_trace::span(
                Stage::Enhance,
                "offline_enhance",
                tick,
                ms_to_us(timing.enhance_ms),
                0.0,
            );
            echowrite_trace::span(
                Stage::Profile,
                "offline_profile",
                tick,
                ms_to_us(timing.profile_ms),
                profile.len() as f64,
            );
            echowrite_trace::span(
                Stage::Segment,
                "offline_segment",
                tick,
                ms_to_us(timing.segment_ms),
                segments.len() as f64,
            );
        }

        Analysis { binary, profile, segments, timing }
    }

    /// Like [`Pipeline::analyze`] but also returns the intermediate
    /// enhancement stages (Fig. 8 panels) for inspection.
    pub fn analyze_verbose(&self, audio: &[f64]) -> (Analysis, Option<echowrite_spectro::EnhanceStages>) {
        match self.roi_spectrogram(audio) {
            None => (self.analyze(audio), None),
            Some(spec) => {
                let stages = self.enhancer.enhance_stages(&spec);
                let analysis = self.analyze(audio);
                (analysis, Some(stages))
            }
        }
    }
}

impl Default for Pipeline {
    fn default() -> Self {
        Pipeline::new(EchoWriteConfig::paper())
    }
}

/// The ROI band in full-rate STFT bins: `(lo, hi, carrier_bin)`. Shared by
/// the batch pipeline and the streaming front-end so both crop the exact
/// same rows.
pub(crate) fn roi_bins(config: &EchoWriteConfig) -> (usize, usize, usize) {
    let cfg = &config.stft;
    let carrier_bin = cfg.frequency_bin(config.carrier_hz);
    let lo = cfg.frequency_bin(config.carrier_hz - config.roi_span_hz);
    let hi = cfg.frequency_bin(config.carrier_hz + config.roi_span_hz);
    (lo, hi, carrier_bin)
}

/// The decimating front-end's immutable plan, shared between sessions.
pub(crate) type SharedDownconvert = (std::sync::Arc<Downconverter>, std::sync::Arc<BasebandStft>);

/// Builds the decimating front-end pair, once per pipeline: the batch path
/// and every streaming session share it, so the filter taps and framing
/// geometry are identical — same bin width and hop duration as the
/// full-rate STFT, with magnitudes scaled by `factor` so α stays
/// calibrated.
fn make_downconvert(config: &EchoWriteConfig, factor: usize) -> SharedDownconvert {
    let dc = Downconverter::new(config.carrier_hz, config.stft.sample_rate, factor, 129);
    let bb = BasebandStft::new(
        config.stft.fft_size / factor,
        config.stft.hop / factor,
        factor as f64,
    );
    (std::sync::Arc::new(dc), std::sync::Arc::new(bb))
}

/// Fills a flat frame-major buffer (`frames × band`) by computing each frame
/// row with `fill`, chunked across `workers` scoped threads.
///
/// Workers own disjoint `chunks_mut` regions and a private scratch, so the
/// result is identical — bit for bit — for every worker count; one worker
/// takes a plain serial loop with no thread scope.
fn fill_frame_major<S>(
    flat: &mut [f64],
    frames: usize,
    band: usize,
    workers: usize,
    make_scratch: impl Fn() -> S + Sync,
    fill: impl Fn(usize, &mut S, &mut [f64]) + Sync,
) {
    debug_assert_eq!(flat.len(), frames * band);
    if workers <= 1 || frames <= 1 {
        let mut scratch = make_scratch();
        for (f, row) in flat.chunks_exact_mut(band).enumerate() {
            fill(f, &mut scratch, row);
        }
        return;
    }
    let chunk = frames.div_ceil(workers);
    std::thread::scope(|s| {
        for (ci, chunk_out) in flat.chunks_mut(chunk * band).enumerate() {
            let (make_scratch, fill) = (&make_scratch, &fill);
            s.spawn(move || {
                let mut scratch = make_scratch();
                for (j, row) in chunk_out.chunks_exact_mut(band).enumerate() {
                    fill(ci * chunk + j, &mut scratch, row);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use echowrite_gesture::{Stroke, Writer, WriterParams};
    use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};

    fn stroke_audio(stroke: Stroke, seed: u64) -> Vec<f64> {
        let perf = Writer::new(WriterParams::nominal(), seed).write_stroke(stroke);
        Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), seed)
            .render(&perf.trajectory)
    }

    #[test]
    fn empty_audio_yields_empty_analysis() {
        let p = Pipeline::default();
        let a = p.analyze(&[]);
        assert!(a.segments.is_empty());
        assert!(a.profile.is_empty());
    }

    #[test]
    fn detects_one_segment_per_stroke() {
        let p = Pipeline::default();
        let a = p.analyze(&stroke_audio(Stroke::S3, 11));
        assert_eq!(a.segments.len(), 1, "{:?}", a.segments);
        assert!(a.profile.peak_shift() > 30.0);
    }

    #[test]
    fn timing_is_populated_and_signal_dominated() {
        let p = Pipeline::default();
        let a = p.analyze(&stroke_audio(Stroke::S2, 3));
        assert!(a.timing.stft_ms > 0.0);
        assert!(a.timing.enhance_ms > 0.0);
        assert!(a.timing.total_ms() > 0.0);
        // Without DTW/decode the signal fraction is 100 % by construction;
        // the meaningful claim (> 90 % with DTW) is asserted in the engine
        // tests. Here just check the accessor is consistent.
        assert!(a.timing.signal_processing_fraction() <= 1.0);
    }

    #[test]
    fn analyze_verbose_exposes_stages() {
        let p = Pipeline::default();
        let (a, stages) = p.analyze_verbose(&stroke_audio(Stroke::S5, 5));
        let stages = stages.expect("stages for non-empty audio");
        assert_eq!(stages.binary, a.binary);
        assert!(stages.raw.max_value() > stages.binary.max_value());
    }

    /// The frame-parallel front-end must be bitwise identical to the serial
    /// reference for every worker count, on both front-ends.
    #[test]
    fn parallel_roi_is_bitwise_identical_to_serial() {
        use crate::config::Parallelism;
        let audio = stroke_audio(Stroke::S4, 7);
        for base in [EchoWriteConfig::paper(), EchoWriteConfig::downsampled(32)] {
            let mut serial_cfg = base.clone();
            serial_cfg.parallelism = Parallelism::Threads(1);
            let reference = Pipeline::new(serial_cfg).roi_spectrogram(&audio).unwrap();
            for workers in [2, 3, 8] {
                let mut cfg = base.clone();
                cfg.parallelism = Parallelism::Threads(workers);
                let spec = Pipeline::new(cfg).roi_spectrogram(&audio).unwrap();
                assert_eq!(spec, reference, "workers={workers}");
            }
        }
    }

    /// The band-extraction rewrite must reproduce the original
    /// `process` + `roi_from_stft` construction exactly.
    #[test]
    fn roi_matches_legacy_full_spectrum_construction() {
        let audio = stroke_audio(Stroke::S1, 9);
        let mut cfg = EchoWriteConfig::paper();
        cfg.parallelism = crate::config::Parallelism::Threads(1);
        let p = Pipeline::new(cfg);
        let spec = p.roi_spectrogram(&audio).unwrap();
        let frames = p.stft.process(&audio);
        let legacy = Spectrogram::roi_from_stft(
            &frames,
            p.stft.config(),
            p.config.carrier_hz,
            p.config.roi_span_hz,
        );
        assert_eq!(spec, legacy);
    }

    #[test]
    #[should_panic(expected = "invalid EchoWrite config")]
    fn rejects_invalid_config() {
        let mut cfg = EchoWriteConfig::paper();
        cfg.top_k = 0;
        Pipeline::new(cfg);
    }

    /// The Sec. VII-A optimization: the decimated front-end must produce a
    /// spectrogram with identical geometry and near-identical Doppler
    /// profiles, so segmentation agrees with the full pipeline.
    #[test]
    fn downconverted_frontend_matches_full_pipeline() {
        let audio = stroke_audio(Stroke::S2, 4);
        let full = Pipeline::new(EchoWriteConfig::paper());
        let fast = Pipeline::new(EchoWriteConfig::downsampled(32));

        let sf = full.roi_spectrogram(&audio).unwrap();
        let sd = fast.roi_spectrogram(&audio).unwrap();
        assert_eq!(sf.rows(), sd.rows(), "row geometry must match");
        assert_eq!(sf.carrier_row(), sd.carrier_row());
        assert!((sf.bin_hz() - sd.bin_hz()).abs() < 1e-9);
        assert!((sf.cols() as i64 - sd.cols() as i64).abs() <= 1);

        let af = full.analyze(&audio);
        let ad = fast.analyze(&audio);
        assert_eq!(af.segments.len(), ad.segments.len(), "segmentation diverged");
        let (f, d) = (&af.segments[0], &ad.segments[0]);
        assert!((f.start as i64 - d.start as i64).abs() <= 2, "{f:?} vs {d:?}");
        assert!((f.end as i64 - d.end as i64).abs() <= 4, "{f:?} vs {d:?}");
        // Peak Doppler shift agrees within a bin or two.
        assert!(
            (af.profile.peak_shift() - ad.profile.peak_shift()).abs() < 12.0,
            "{} vs {}",
            af.profile.peak_shift(),
            ad.profile.peak_shift()
        );
    }

    #[test]
    fn downsampled_config_validation() {
        assert!(EchoWriteConfig::downsampled(32).validate().is_ok());
        assert!(EchoWriteConfig::downsampled(3).validate().is_err()); // 8192/3
        assert!(EchoWriteConfig::downsampled(1).validate().is_err());
        // Factor 64 leaves ±344 Hz < ROI span: rejected.
        assert!(EchoWriteConfig::downsampled(64).validate().is_err());
    }
}
