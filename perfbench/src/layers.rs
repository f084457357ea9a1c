//! Per-layer probes shared by the traced runs: the single-threaded replay
//! of a workload's chunks through the incremental chain, the decimating
//! front-end replayed through the `dsp` crate's public functions, and the
//! snapshot codec on sessions frozen mid-word.

use crate::inputs::{Word, CHUNK};
use crate::report::Report;
use crate::stats;
use echowrite::{EchoWrite, EchoWriteConfig, Parallelism, StreamingSession};
use echowrite_dsp::downconvert::{
    BasebandScratch, BasebandStft, Downconverter, StreamingDownconverter,
};
use echowrite_dsp::Complex;
use echowrite_snapshot::{restore_session, snapshot_session};
use std::hint::black_box;
use std::time::Instant;

/// The decimation factor of the serving engine.
pub const DECIMATION: usize = 32;

/// The serving engine of `serve_flood` and `wire_paced`.
pub fn serving_engine() -> EchoWrite {
    EchoWrite::with_config(EchoWriteConfig {
        parallelism: Parallelism::Threads(1),
        ..EchoWriteConfig::streaming_downsampled(DECIMATION)
    })
}

/// The decimating front-end replayed through the `dsp` crate's public
/// functions with the serving engine's geometry: the streaming
/// down-converter, then the baseband STFT over every frame a chunk
/// completes.
struct FrontEnd {
    sdc: StreamingDownconverter,
    bb: BasebandStft,
    scratch: BasebandScratch,
    rows: (usize, usize),
    band: usize,
    baseband: Vec<Complex>,
    consumed: usize,
    out: Vec<f64>,
}

impl FrontEnd {
    fn new(engine: &EchoWrite) -> Self {
        let cfg = engine.config();
        let carrier_bin = cfg.stft.frequency_bin(cfg.carrier_hz);
        let lo = cfg.stft.frequency_bin(cfg.carrier_hz - cfg.roi_span_hz);
        let hi = cfg.stft.frequency_bin(cfg.carrier_hz + cfg.roi_span_hz);
        let bb = BasebandStft::new(
            cfg.stft.fft_size / DECIMATION,
            cfg.stft.hop / DECIMATION,
            DECIMATION as f64,
        );
        let centre = bb.fft_size() / 2;
        let dc = Downconverter::new(cfg.carrier_hz, cfg.stft.sample_rate, DECIMATION, 129);
        FrontEnd {
            sdc: StreamingDownconverter::new(dc),
            scratch: bb.make_scratch(),
            rows: (centre - (carrier_bin - lo), centre + (hi - carrier_bin)),
            band: hi - lo + 1,
            bb,
            baseband: Vec::new(),
            consumed: 0,
            out: Vec::new(),
        }
    }

    fn push(&mut self, chunk: &[f64]) {
        self.sdc.push(chunk, &mut self.baseband);
        let frames = self.bb.frame_count(self.baseband.len() - self.consumed);
        self.out.resize(frames * self.band, 0.0);
        let (row_lo, row_hi) = self.rows;
        self.bb.process_rows_into(
            &self.baseband[self.consumed..],
            row_lo,
            row_hi,
            &mut self.scratch,
            &mut self.out,
        );
        self.consumed += frames * self.bb.hop();
        black_box(&self.out);
    }
}

/// Replays `words` push by push on one thread through three copies of the
/// work — the session with classify on, the session with classify off, and
/// the front-end alone — taking turns per chunk in a rotating order so the
/// host's drift hits all three alike, until `seconds` have gone by.
/// Records the `core`, `dsp` front-end and per-push `dtw` metrics and
/// returns the mean classify-on push time, µs.
pub fn push_replay(report: &mut Report, engine: &EchoWrite, words: &[Word], seconds: f64) -> f64 {
    let mut times: [Vec<f64>; 3] = Default::default();
    let mut events = Vec::new();
    let mut turn = 0usize;
    let start = Instant::now();
    while times[0].is_empty() || start.elapsed().as_secs_f64() < seconds {
        for w in words {
            let mut on = StreamingSession::new(engine);
            let mut off = StreamingSession::new(engine);
            let mut front = FrontEnd::new(engine);
            for chunk in w.audio.chunks(CHUNK) {
                turn += 1;
                for k in 0..3 {
                    let which = (turn + k) % 3;
                    events.clear();
                    let clock = Instant::now();
                    match which {
                        0 => on.push_events(engine, chunk, true, &mut events),
                        1 => off.push_events(engine, chunk, false, &mut events),
                        _ => front.push(chunk),
                    }
                    times[which].push(clock.elapsed().as_secs_f64() * 1e6);
                    black_box(&events);
                }
            }
        }
    }
    let [on, off, front] = &times;
    let (on_mean, off_mean, front_mean) = (stats::mean(on), stats::mean(off), stats::mean(front));
    report.metric("core.push_us_mean", on_mean, "us");
    report.metric(
        "core.push_us_p99",
        stats::quantile(&stats::sorted(on), 0.99),
        "us",
    );
    report.metric("core.chain_rest_us_per_push", off_mean - front_mean, "us");
    report.metric("dsp.frontend_us_per_push", front_mean, "us");
    report.metric("dtw.classify_us_per_push", on_mean - off_mean, "us");
    report.note(format!(
        "# push replay: {} pushes per mode on one thread, modes interleaved",
        on.len()
    ));
    on_mean
}

/// Freezes a session of each word at its mid-word chunk boundary (where
/// `wire_paced` users pause) and times `snapshot_session` and
/// `restore_session` on it, checking the restored session finishes with
/// the same transcript.
pub fn snapshot_micro(report: &mut Report, engine: &EchoWrite, words: &[Word]) -> bool {
    let (mut snap_us, mut restore_us, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    let mut ok = true;
    for w in words {
        let pause = pause_chunk(w.audio.len()) * CHUNK;
        let mut session = StreamingSession::new(engine);
        let mut events = Vec::new();
        for chunk in w.audio[..pause].chunks(CHUNK) {
            session.push_events(engine, chunk, true, &mut events);
        }
        let mut encoded = Vec::new();
        for _ in 0..8 {
            let clock = Instant::now();
            encoded = snapshot_session(&session, engine);
            snap_us.push(clock.elapsed().as_secs_f64() * 1e6);
            bytes.push(encoded.len() as f64);
            let clock = Instant::now();
            let restored = restore_session(&encoded, engine);
            restore_us.push(clock.elapsed().as_secs_f64() * 1e6);
            ok &= restored.is_ok();
        }
        // The restored copy must carry on exactly like the original.
        let Ok(mut thawed) = restore_session(&encoded, engine) else {
            ok = false;
            continue;
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for chunk in w.audio[pause..].chunks(CHUNK) {
            session.push_events(engine, chunk, true, &mut a);
            thawed.push_events(engine, chunk, true, &mut b);
        }
        session.finish_events(engine, true, &mut a);
        thawed.finish_events(engine, true, &mut b);
        let key = |v: &[echowrite::SegmentEvent]| -> Vec<(usize, usize, Option<[u64; 6]>)> {
            v.iter()
                .map(|e| {
                    (
                        e.start_frame,
                        e.end_frame,
                        e.classification
                            .as_ref()
                            .map(|c| c.scores.map(f64::to_bits)),
                    )
                })
                .collect()
        };
        ok &= key(&a) == key(&b);
    }
    report.metric("snapshot.suspend_us", stats::median(&snap_us), "us");
    report.metric("snapshot.restore_us", stats::median(&restore_us), "us");
    report.metric("snapshot.bytes_per_session", stats::mean(&bytes), "bytes");
    ok
}

/// The chunk index at which a pausing user stops: the last whole-chunk
/// boundary before the word's midpoint.
pub fn pause_chunk(audio_len: usize) -> usize {
    (audio_len / 2 / CHUNK).max(1)
}
