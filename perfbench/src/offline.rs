//! `offline_words`: batch `EchoWrite::recognize_word` on seeded words with
//! the paper engine on one thread, and the Fig. 19-style stage waterfall
//! timed from outside by calling each stage's public function in turn.

use crate::inputs::{self, Word};
use crate::report::Report;
use crate::stats;
use echowrite::{EchoWrite, EchoWriteConfig, Parallelism, WordRecognition};
use echowrite_dtw::Classification;
use echowrite_gesture::Stroke;
use echowrite_lang::Candidate;
use echowrite_profile::mvce::extract_profile_with_guard;
use echowrite_profile::Segmenter;
use echowrite_spectro::{Enhancer, Spectrogram};
use std::time::Instant;

/// Words drawn per run, written in the three rooms in turn; the measured
/// loop cycles through them. A small pool keeps input synthesis short, so
/// consecutive runs sit close together in time on a drifting host.
pub const POOL: usize = 48;

/// The stated waterfall bound: the stage times must account for the
/// `recognize_word` time per word to within this share of it.
pub const WATERFALL_BOUND: f64 = 0.15;

/// The engine under test: the paper's deployed chain, serial.
pub fn paper_engine() -> EchoWrite {
    EchoWrite::with_config(EchoWriteConfig {
        parallelism: Parallelism::Threads(1),
        ..EchoWriteConfig::paper()
    })
}

/// A recognition reduced to what must repeat bitwise: strokes, the six
/// scores per segment, and the ranked candidates with their posteriors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    segments: Vec<(usize, usize, Stroke, [u64; 6])>,
    candidates: Vec<(String, u64, bool)>,
}

fn fingerprint(
    segments: impl Iterator<Item = (usize, usize)>,
    classes: &[Classification],
    candidates: &[Candidate],
) -> Fingerprint {
    Fingerprint {
        segments: segments
            .zip(classes)
            .map(|((s, e), c)| (s, e, c.stroke, c.scores.map(f64::to_bits)))
            .collect(),
        candidates: candidates
            .iter()
            .map(|c| (c.word.clone(), c.posterior.to_bits(), c.corrected))
            .collect(),
    }
}

fn fingerprint_of(rec: &WordRecognition) -> Fingerprint {
    fingerprint(
        rec.strokes.segments.iter().map(|s| (s.start, s.end)),
        &rec.strokes.classifications,
        &rec.candidates,
    )
}

/// Per-stage wall time of one word, ms, plus the stage outputs' sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub stft: f64,
    pub enhance: f64,
    pub mvce: f64,
    pub segment: f64,
    pub classify: f64,
    pub decode: f64,
    pub segments: usize,
    pub candidates: usize,
}

impl StageTimes {
    fn total(&self) -> f64 {
        self.stft + self.enhance + self.mvce + self.segment + self.classify + self.decode
    }
}

/// Runs the recognition chain stage by stage through each layer's public
/// function — the same calls `recognize_word` makes — timing each one.
/// Returns the stage times and the result's fingerprint.
pub fn staged(engine: &EchoWrite, audio: &[f64]) -> (StageTimes, Fingerprint) {
    let cfg = engine.config();
    let enhancer = Enhancer::new(cfg.enhance);
    let segmenter = Segmenter::new(cfg.segment);
    let mut t = StageTimes::default();

    let clock = Instant::now();
    let spec = engine
        .pipeline()
        .roi_spectrogram(audio)
        .unwrap_or_else(|| Spectrogram::zeros(2 * cfg.guard_bins + 3, 0));
    t.stft = ms(clock);

    let clock = Instant::now();
    let binary = if spec.cols() == 0 {
        spec
    } else {
        enhancer.enhance(&spec)
    };
    t.enhance = ms(clock);

    let clock = Instant::now();
    let profile = extract_profile_with_guard(&binary, cfg.guard_bins);
    t.mvce = ms(clock);

    let clock = Instant::now();
    let segments = segmenter.segment(&profile);
    t.segment = ms(clock);

    let clock = Instant::now();
    let classes: Vec<Classification> = segments
        .iter()
        .map(|s| {
            engine
                .classifier()
                .classify(profile.slice(s.start, s.end).shifts())
        })
        .collect();
    t.classify = ms(clock);

    let clock = Instant::now();
    let observed: Vec<Stroke> = classes.iter().map(|c| c.stroke).collect();
    let scores: Vec<[f64; 6]> = classes.iter().map(|c| c.scores).collect();
    let candidates = if observed.is_empty() {
        Vec::new()
    } else {
        engine.decoder().decode_soft(&observed, &scores)
    };
    t.decode = ms(clock);

    t.segments = segments.len();
    t.candidates = candidates.len();
    let fp = fingerprint(
        segments.iter().map(|s| (s.start, s.end)),
        &classes,
        &candidates,
    );
    (t, fp)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The inputs of one run: the word pool, each word's reference
/// fingerprint and whether it reaches the top 5.
pub struct Prepared {
    pub words: Vec<Word>,
    pub reference: Vec<Fingerprint>,
    pub top5: Vec<bool>,
}

/// Recognises every pool word once (untimed) to fix its reference output.
pub fn prepare(engine: &EchoWrite, words: Vec<Word>) -> Prepared {
    let recs: Vec<WordRecognition> = words
        .iter()
        .map(|w| engine.recognize_word(&w.audio))
        .collect();
    let reference = recs.iter().map(fingerprint_of).collect();
    let top5 = words
        .iter()
        .zip(&recs)
        .map(|(w, r)| r.in_top(&w.text, 5))
        .collect();
    Prepared {
        words,
        reference,
        top5,
    }
}

/// What the batch loop measured.
#[derive(Debug, Default)]
pub struct Loop {
    pub words: u64,
    pub audio_s: f64,
    pub wall_s: f64,
    pub latencies_ms: Vec<f64>,
    /// The pool index of each latency sample.
    pub word_of: Vec<usize>,
    pub mismatches: u64,
    pub top5_misses: u64,
    /// Stage times per word (traced loops only).
    pub stages: Vec<StageTimes>,
    /// Staged results that differed from `recognize_word`'s.
    pub staged_mismatches: u64,
}

/// Recognises pool words round-robin for `seconds` of wall time, checking
/// every result against the reference. With `traced`, each word also runs
/// through [`staged`] (outside the timed `recognize_word` call).
pub fn run_loop(engine: &EchoWrite, prep: &Prepared, seconds: f64, traced: bool) -> Loop {
    let mut out = Loop::default();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds || out.words == 0 {
        let k = i % prep.words.len();
        i += 1;
        let word = &prep.words[k];
        let clock = Instant::now();
        let rec = engine.recognize_word(&word.audio);
        let lat = ms(clock);
        let fp = fingerprint_of(&rec);
        out.latencies_ms.push(lat);
        out.word_of.push(k);
        out.words += 1;
        out.audio_s += word.seconds();
        if fp != prep.reference[k] {
            out.mismatches += 1;
        }
        if !prep.top5[k] {
            out.top5_misses += 1;
        }
        if traced {
            let (t, staged_fp) = staged(engine, &word.audio);
            if staged_fp != fp {
                out.staged_mismatches += 1;
            }
            out.stages.push(t);
        }
    }
    // A traced loop's wall clock also covers the staged replay; its
    // throughput counts the recognize_word calls alone.
    out.wall_s = if traced {
        out.latencies_ms.iter().sum::<f64>() / 1e3
    } else {
        start.elapsed().as_secs_f64()
    };
    out
}

/// End-to-end metrics of an untraced loop. Throughput comes from each
/// pool word's median `recognize_word` time over its repetitions, so a
/// repetition the host preempted does not move it.
pub fn end_to_end(report: &mut Report, l: &Loop, words: &[Word]) {
    let mut by_word: Vec<Vec<f64>> = vec![Vec::new(); words.len()];
    for (&k, &lat) in l.word_of.iter().zip(&l.latencies_ms) {
        by_word[k].push(lat);
    }
    let (mut seen, mut audio_s, mut busy_s) = (0usize, 0.0, 0.0);
    for (w, lats) in words.iter().zip(&by_word) {
        if !lats.is_empty() {
            seen += 1;
            audio_s += w.seconds();
            busy_s += stats::median(lats) / 1e3;
        }
    }
    report.metric("words_per_s", seen as f64 / busy_s, "1/s");
    report.metric("throughput_rtf", audio_s / busy_s, "x");
    report.metric(
        "stroke_latency_p50_ms",
        stats::median(&l.latencies_ms),
        "ms",
    );
    report.note(format!(
        "# offline_words: {} recognitions of {seen} distinct words ({:.2} s audio) in {:.3} s wall; \
         throughput from each word's median time; latency is recognize_word time per word, {} samples",
        l.words,
        l.audio_s,
        l.wall_s,
        l.latencies_ms.len()
    ));
}

/// The waterfall of a traced loop: per-stage means, the unattributed rest,
/// and the stated-bound check. Returns whether the stages account for the
/// `recognize_word` time within [`WATERFALL_BOUND`].
pub fn waterfall(report: &mut Report, l: &Loop) -> bool {
    let n = l.stages.len().max(1) as f64;
    let sum = |f: fn(&StageTimes) -> f64| l.stages.iter().map(f).sum::<f64>() / n;
    let recognize = stats::mean(&l.latencies_ms);
    let staged_total = sum(StageTimes::total);
    let unattributed = recognize - staged_total;
    report.metric("dsp.stft_ms_per_word", sum(|t| t.stft), "ms");
    report.metric("spectro.enhance_ms_per_word", sum(|t| t.enhance), "ms");
    report.metric("profile.mvce_ms_per_word", sum(|t| t.mvce), "ms");
    report.metric("profile.segment_ms_per_word", sum(|t| t.segment), "ms");
    report.metric("dtw.classify_ms_per_word", sum(|t| t.classify), "ms");
    report.metric("dtw.segments_per_word", sum(|t| t.segments as f64), "count");
    report.metric("lang.decode_ms_per_word", sum(|t| t.decode), "ms");
    report.metric(
        "lang.candidates_per_word",
        sum(|t| t.candidates as f64),
        "count",
    );
    report.metric("core.unattributed_ms_per_word", unattributed, "ms");
    let ok = recognize > 0.0 && unattributed.abs() <= WATERFALL_BOUND * recognize;
    report.note(format!(
        "# waterfall: recognize_word {recognize:.3} ms/word, stages sum {staged_total:.3} ms/word, \
         unattributed {:.1}% (bound {:.0}%): {}",
        100.0 * unattributed / recognize.max(f64::MIN_POSITIVE),
        100.0 * WATERFALL_BOUND,
        if ok { "ok" } else { "FAILED" }
    ));
    ok
}

/// Draws the run's word pool.
pub fn words(seed: u64) -> Vec<Word> {
    inputs::draw_words(seed, 1, POOL, 1)
}
