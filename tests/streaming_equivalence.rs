//! The streaming batch-equivalence guarantee (DESIGN.md §6.3), as a
//! property: for *arbitrary* chunkings of the input audio, the incremental
//! [`StreamingRecognizer`] emits exactly the segments and classifications
//! of the offline [`EchoWrite::recognize_strokes`] on the concatenated
//! session — same boundaries, same DTW scores, bitwise — on both the
//! full-rate and the down-converted front-end. The enhancement stage is
//! also pinned on its own: [`IncrementalEnhancer`] against the batch
//! [`Enhancer::enhance`] on the same sessions' ROI spectrograms, through
//! mid-session state export and restore.

use echowrite::{EchoWrite, EchoWriteConfig, StreamingRecognizer, StrokeRecognition};
use echowrite_gesture::{Stroke, Writer, WriterParams};
use echowrite_spectro::{Enhancer, IncrementalEnhancer, Spectrogram};
use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};
use proptest::prelude::*;
use std::sync::OnceLock;

/// One engine per front-end, both with the causal streaming enhancement.
fn engines() -> &'static [EchoWrite; 2] {
    static E: OnceLock<[EchoWrite; 2]> = OnceLock::new();
    E.get_or_init(|| {
        [
            EchoWrite::with_config(EchoWriteConfig::streaming()),
            EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32)),
        ]
    })
}

struct Case {
    name: &'static str,
    audio: Vec<f64>,
    /// Offline oracle per engine, computed once.
    offline: [StrokeRecognition; 2],
}

fn render(strokes: &[Stroke], seed: u64, tail: f64) -> Vec<f64> {
    let perf = Writer::new(WriterParams::nominal(), seed).write_sequence(strokes);
    let mut traj = perf.trajectory;
    if tail > 0.0 {
        let last = *traj.points().last().expect("non-empty trajectory");
        traj.hold(last, tail);
    }
    Scene::new(DeviceProfile::mate9(), EnvironmentProfile::meeting_room(), seed).render(&traj)
}

fn pool() -> &'static Vec<Case> {
    static P: OnceLock<Vec<Case>> = OnceLock::new();
    P.get_or_init(|| {
        let audios: Vec<(&'static str, Vec<f64>)> = vec![
            ("single", render(&[Stroke::S2], 3, 1.0)),
            ("pair", render(&[Stroke::S4, Stroke::S1], 11, 1.2)),
            // No rest tail: the last stroke is only decidable at finish.
            ("triple-truncated", render(&[Stroke::S3, Stroke::S6, Stroke::S5], 29, 0.0)),
            // Silence, deliberately not hop-aligned.
            ("silence", vec![0.0; 30_001]),
        ];
        audios
            .into_iter()
            .map(|(name, audio)| {
                let offline = [
                    engines()[0].recognize_strokes(&audio),
                    engines()[1].recognize_strokes(&audio),
                ];
                Case { name, audio, offline }
            })
            .collect()
    })
}

/// Streams `audio` through the recognizer using the chunk-length pattern
/// (cycled), then finishes; returns `(start, end, stroke, scores)` per
/// event.
fn stream_with_chunks(
    engine: &EchoWrite,
    audio: &[f64],
    chunks: &[usize],
) -> Vec<(usize, usize, Stroke, [f64; 6])> {
    let mut stream = StreamingRecognizer::new(engine);
    assert!(stream.is_incremental(), "streaming preset must take the incremental path");
    let mut events = Vec::new();
    let mut pos = 0;
    let mut i = 0;
    while pos < audio.len() {
        let len = chunks[i % chunks.len()].min(audio.len() - pos);
        events.extend(stream.push(&audio[pos..pos + len]));
        pos += len;
        i += 1;
    }
    events.extend(stream.finish());
    events
        .into_iter()
        .map(|ev| (ev.start_frame, ev.end_frame, ev.classification.stroke, ev.classification.scores))
        .collect()
}

fn assert_equals_offline(case: &Case, engine_idx: usize, chunks: &[usize]) {
    let got = stream_with_chunks(&engines()[engine_idx], &case.audio, chunks);
    let oracle = &case.offline[engine_idx];
    assert_eq!(
        got.len(),
        oracle.segments.len(),
        "case {} engine {engine_idx}: streamed vs offline segment count",
        case.name,
    );
    for ((start, end, stroke, scores), (seg, cls)) in got
        .iter()
        .zip(oracle.segments.iter().zip(&oracle.classifications))
    {
        assert_eq!(*start, seg.start, "case {}: start frame", case.name);
        assert_eq!(*end, seg.end, "case {}: end frame", case.name);
        assert_eq!(*stroke, cls.stroke, "case {}: stroke label", case.name);
        for (a, b) in scores.iter().zip(&cls.scores) {
            assert!(a == b, "case {}: DTW scores diverge bitwise ({a} vs {b})", case.name);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random chunk-size patterns in [1, 16384], random scenario, both
    /// front-ends: streaming == offline, bitwise.
    #[test]
    fn streaming_equals_offline_for_any_chunking(
        chunks in prop::collection::vec(1usize..16_385, 1..24),
        case_idx in 0usize..4,
        engine_idx in 0usize..2,
    ) {
        assert_equals_offline(&pool()[case_idx], engine_idx, &chunks);
    }
}

/// Values the enhancement chain must carry through bitwise like the batch
/// path: NaN, signed zeros, infinities, a subnormal, and a finger-echo-size
/// magnitude.
const SPECIAL_VALUES: [f64; 8] =
    [f64::NAN, -0.0, 0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, 60.0, -60.0];

/// Streams `spec`'s columns through an [`IncrementalEnhancer`] in groups
/// of the (cycled) `chunks` sizes; after every `cut_every`-th group the
/// enhancer's state is exported and restored into a fresh one, as a
/// suspend/resume would. Returns the emitted columns reassembled.
fn enhance_in_chunks(
    engine: &EchoWrite,
    spec: &Spectrogram,
    chunks: &[usize],
    cut_every: usize,
) -> Spectrogram {
    let cfg = engine.config().enhance;
    let mut out = Spectrogram::zeros(spec.rows(), spec.cols());
    out.set_carrier_row(spec.carrier_row());
    let mut next = 0;
    let mut sink = |c: usize, col: &[f64]| {
        assert_eq!(c, next, "columns emitted out of order");
        for (r, &v) in col.iter().enumerate() {
            out.set(r, c, v);
        }
        next += 1;
    };
    let mut inc = IncrementalEnhancer::new(cfg, spec.rows());
    let (mut col, mut group) = (0, 0);
    while col < spec.cols() {
        let end = (col + chunks[group % chunks.len()]).min(spec.cols());
        for c in col..end {
            inc.push_column(&spec.column(c), &mut sink);
        }
        col = end;
        group += 1;
        if group % cut_every == 0 {
            let state = inc.export_state();
            inc = IncrementalEnhancer::new(cfg, spec.rows());
            inc.restore_state(&state).expect("exported state restores");
        }
    }
    inc.finish(&mut sink);
    assert_eq!(next, spec.cols(), "every column emitted exactly once");
    out
}

#[track_caller]
fn assert_spectrograms_bitwise(a: &Spectrogram, b: &Spectrogram, what: &str) {
    assert_eq!((a.rows(), a.cols()), (b.rows(), b.cols()), "{what}: shape");
    for c in 0..a.cols() {
        for r in 0..a.rows() {
            let (x, y) = (a.get(r, c), b.get(r, c));
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: ({r}, {c}) is {x} vs {y}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The incremental enhancer equals the batch chain bitwise on every
    /// pooled session's ROI spectrogram, for random column groupings and
    /// state round trips, with random pixels overwritten by special values.
    #[test]
    fn incremental_enhancer_equals_batch_under_any_chunking(
        chunks in prop::collection::vec(1usize..48, 1..12),
        cut_every in 1usize..5,
        case_idx in 0usize..4,
        engine_idx in 0usize..2,
        specials in prop::collection::vec((0usize..1 << 20, 0usize..8), 0..24),
    ) {
        let engine = &engines()[engine_idx];
        let case = &pool()[case_idx];
        let Some(mut spec) = engine.pipeline().roi_spectrogram(&case.audio) else {
            return;
        };
        for &(at, v) in &specials {
            let (r, c) = (at % spec.rows(), (at / spec.rows()) % spec.cols());
            spec.set(r, c, SPECIAL_VALUES[v]);
        }
        let batch = Enhancer::new(engine.config().enhance).enhance(&spec);
        let streamed = enhance_in_chunks(engine, &spec, &chunks, cut_every);
        assert_spectrograms_bitwise(&streamed, &batch, case.name);
    }
}

/// Deterministic edge chunkings that random sampling is unlikely to hit:
/// one-sample pushes, exact hop/FFT alignment, one giant push.
#[test]
fn streaming_equals_offline_for_edge_chunkings() {
    let case = &pool()[0];
    for engine_idx in [0usize, 1] {
        for chunks in [
            vec![1usize],
            vec![1024],
            vec![8192],
            vec![usize::MAX / 2],
            vec![1023, 1, 1025, 511],
        ] {
            assert_equals_offline(case, engine_idx, &chunks);
        }
    }
}
