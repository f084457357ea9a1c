//! Seeded inputs: words drawn by frequency from the embedded lexicon,
//! written by the nominal writer in the three paper rooms, plus the
//! isolated streaming oracle every served session is checked against.

use echowrite::{EchoWrite, StreamingRecognizer, StrokeEvent};
use echowrite_corpus::Lexicon;
use echowrite_gesture::{InputScheme, Stroke, Writer, WriterParams};
use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};

/// The Android app's 5-frame push: 5120 samples, 116.1 ms at 44.1 kHz.
pub const CHUNK: usize = 5 * 1024;

/// SplitMix64: a tiny, fully specified generator, so a seed names the same
/// inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so the workloads'
    /// draws do not overlap.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD605_BBB5_8C8A_BA9B));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// One written word: its text and microphone audio.
#[derive(Debug, Clone)]
pub struct Word {
    /// The lexicon word.
    pub text: String,
    /// Rendered 44.1 kHz microphone samples.
    pub audio: Vec<f64>,
}

impl Word {
    /// Audio duration, seconds.
    pub fn seconds(&self) -> f64 {
        self.audio.len() as f64 / 44_100.0
    }
}

/// Draws `n` words by lexicon frequency and writes each in `rooms` of the
/// three paper rooms: all three for `rooms == 3`, else one, in turn.
///
/// The draw is systematic: the words at cumulative frequency
/// `(i + ½) / n` of the total, so each word comes up in proportion to its
/// frequency and every seed writes the same word list. The seed picks the
/// writer's and the room's randomness for every trace, and the rooms. A
/// seeded offset would change the list's mean word length by ±7 % at
/// `n = 48`, which every throughput metric would inherit as spread.
pub fn draw_words(seed: u64, stream: u64, n: usize, rooms: usize) -> Vec<Word> {
    let lexicon = Lexicon::embedded();
    let scheme = InputScheme::paper();
    let all_rooms = EnvironmentProfile::all_paper_rooms();
    let total: f64 = lexicon.iter().map(|e| e.frequency).sum();
    let mut rng = Rng::new(seed, stream);
    let first_room = rng.below(all_rooms.len());
    let mut entries = lexicon.iter().peekable();
    let mut cumulative = 0.0;
    let mut out = Vec::with_capacity(n * rooms);
    for i in 0..n {
        let target = (i as f64 + 0.5) / n as f64 * total;
        while let Some(e) = entries.next_if(|e| cumulative + e.frequency <= target) {
            cumulative += e.frequency;
        }
        let text = entries
            .peek()
            .map_or_else(|| "the".to_string(), |e| e.word.clone());
        let strokes = scheme
            .encode_word(&text)
            .expect("lexicon words are letters only");
        for r in 0..rooms {
            let room = (first_room + i + r) % all_rooms.len();
            let write_seed = rng.next_u64();
            let perf = Writer::new(WriterParams::nominal(), write_seed).write_sequence(&strokes);
            let scene = Scene::new(DeviceProfile::mate9(), all_rooms[room].clone(), write_seed);
            let audio = scene.render(&perf.trajectory);
            out.push(Word {
                text: text.clone(),
                audio,
            });
        }
    }
    out
}

/// One transcript row: segment start and end frame, stroke, and the six
/// DTW scores as raw IEEE-754 bits (compared bitwise).
pub type Row = (u64, u64, Stroke, [u64; 6]);

/// Builds a row from a segment's fields.
pub fn row(start_frame: u64, end_frame: u64, stroke: Stroke, scores: &[f64; 6]) -> Row {
    (start_frame, end_frame, stroke, scores.map(f64::to_bits))
}

fn event_row(ev: &StrokeEvent) -> Row {
    row(
        ev.start_frame as u64,
        ev.end_frame as u64,
        ev.classification.stroke,
        &ev.classification.scores,
    )
}

/// What an isolated [`StreamingRecognizer`] emits for one word pushed in
/// [`CHUNK`]s: the transcript, and after which push each row was emitted
/// (`pushes()` for rows emitted by the finish).
#[derive(Debug, Clone, PartialEq)]
pub struct Oracle {
    /// The expected transcript.
    pub rows: Vec<Row>,
    /// Per row, the index of the push that emitted it.
    pub emitted_by: Vec<usize>,
    /// Pushes the word takes.
    pub pushes: usize,
}

/// Runs the isolated streaming oracle over `audio`.
pub fn oracle(engine: &EchoWrite, audio: &[f64]) -> Oracle {
    let mut rec = StreamingRecognizer::new(engine);
    let (mut rows, mut emitted_by) = (Vec::new(), Vec::new());
    let pushes = audio.len().div_ceil(CHUNK);
    for (k, chunk) in audio.chunks(CHUNK).enumerate() {
        for ev in rec.push(chunk) {
            rows.push(event_row(&ev));
            emitted_by.push(k);
        }
    }
    for ev in rec.finish() {
        rows.push(event_row(&ev));
        emitted_by.push(pushes);
    }
    Oracle {
        rows,
        emitted_by,
        pushes,
    }
}

/// Whether a served transcript equals its oracle: same rows, same order,
/// every score bit identical.
pub fn transcript_matches(got: &[Row], want: &[Row]) -> bool {
    got == want
}

/// Audio milliseconds between each oracle segment's end and the end of the
/// push that emitted it: the segmenter's own decision lag.
pub fn decision_lags_ms(o: &Oracle, audio_len: usize, hop: usize) -> Vec<f64> {
    o.rows
        .iter()
        .zip(&o.emitted_by)
        .map(|(r, &k)| {
            let push_end = ((k + 1) * CHUNK).min(audio_len) as f64;
            (push_end - r.1 as f64 * hop as f64) / 44.1
        })
        .collect()
}
