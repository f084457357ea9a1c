//! `serve_flood`: an in-process `SessionManager` (2 shards) under a closed
//! loop of `USERS` users, each writing seeded words back to back, one
//! session per word. A round submits one command per live session, then
//! waits in `quiesce`; a second thread timestamps events as the shards
//! emit them.

use crate::inputs::{Oracle, Row, Word, CHUNK};
use crate::report::Report;
use crate::stats;
use echowrite::Parallelism;
use echowrite_serve::{
    FlightOptions, MetricsSnapshot, ReapPolicy, ServeConfig, ServeEvent, SessionId, SessionManager,
    SubmitVerdict,
};
use std::collections::BTreeMap;
use std::time::Instant;

/// Concurrent users (live sessions).
pub const USERS: usize = 384;

/// Distinct words written per run; users cycle through them.
pub const POOL: usize = 48;

/// The serving configuration: 2 pinned shards, queues deep enough that a
/// round (at most Finish + Open + Push per user) never fills one, no
/// deadline degradation, no reaper.
pub fn config(users: usize) -> ServeConfig {
    ServeConfig {
        shards: Parallelism::Threads(2),
        queue_capacity: 4 * users,
        max_sessions: 2 * users + 8,
        high_water: 2 * users + 8,
        deadline_chunks: None,
        idle_timeout_samples: None,
        batch_max: 8,
        reap_policy: ReapPolicy::Drop,
        flight: FlightOptions {
            artifact_dir: None,
            ..FlightOptions::default()
        },
    }
}

/// One served session: its word and when, and in which round, each
/// command was submitted (pushes in order, then the finish).
struct Session {
    word: usize,
    submitted: Vec<(Instant, usize)>,
}

/// What a flood run measured.
pub struct Flood {
    pub steady_wall_s: f64,
    pub steady_audio_s: f64,
    pub steady_sessions: u64,
    /// Realtime factor of each steady-state round.
    pub round_rtf: Vec<f64>,
    /// Words per second of each steady-state round, each push counting as
    /// its share of its word.
    pub round_words: Vec<f64>,
    pub sessions: u64,
    pub failures: Failures,
    pub latencies_ms: Vec<f64>,
    /// Median stroke latency of each steady-state round, by the round
    /// that submitted the emitting push.
    pub round_latency_ms: Vec<f64>,
    pub metrics: MetricsSnapshot,
    /// Traced runs: time inside each `submit`, µs.
    pub submit_us: Vec<f64>,
    /// Traced runs: total time blocked in `quiesce`, s.
    pub driver_wait_s: f64,
}

/// Failure counts by kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct Failures {
    pub mismatched: u64,
    pub unfinished: u64,
    pub refused: u64,
    pub degraded: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.mismatched + self.unfinished + self.refused + self.degraded
    }
}

/// Runs the closed loop for `seconds` of steady state, then finishes every
/// live session without opening new ones, and checks each transcript
/// against its word's oracle.
pub fn run(
    manager: SessionManager,
    words: &[Word],
    oracles: &[Oracle],
    users: usize,
    order: &[usize],
    seconds: f64,
    traced: bool,
) -> Flood {
    let stream = manager
        .detach_events()
        .expect("a fresh manager owns its event stream");
    let mut sessions: Vec<Session> = Vec::new();
    let mut refused = 0u64;
    let mut submit_us = Vec::new();
    let mut driver_wait_s = 0.0;
    let (mut steady_wall_s, mut steady_audio_s, mut steady_sessions) = (0.0, 0.0, 0u64);
    let mut audio_s = 0.0;
    let mut finished = 0u64;
    let mut round_rtf = Vec::new();
    let mut round_words = Vec::new();
    let mut words_done = 0.0;

    let (arrivals, metrics) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut got = Vec::new();
            while let Some(ev) = stream.recv() {
                got.push((Instant::now(), ev));
            }
            got
        });

        let mut submit = |sessions: &mut Vec<Session>, id: usize, round: usize, req: Req<'_>| {
            let clock = Instant::now();
            let verdict = match req {
                Req::Open => manager.open(SessionId(id as u64)),
                Req::Push(chunk) => manager.push(SessionId(id as u64), chunk),
                Req::Finish => manager.finish(SessionId(id as u64)),
            };
            let now = Instant::now();
            if traced {
                submit_us.push((now - clock).as_secs_f64() * 1e6);
            }
            if !matches!(req, Req::Open) {
                sessions[id].submitted.push((clock, round));
            }
            if verdict != SubmitVerdict::Enqueued {
                refused += 1;
            }
        };

        // Each user: (session id, chunks pushed so far); `next` walks the
        // seeded word order.
        let mut live: Vec<Option<(usize, usize)>> = vec![None; users];
        let mut next = 0usize;
        let start = Instant::now();
        let mut stopping = false;
        for round in 0.. {
            let round_start = Instant::now();
            let (round_audio, round_done) = (audio_s, words_done);
            let mut any = false;
            for slot in live.iter_mut() {
                if slot.is_none() && !stopping {
                    let id = sessions.len();
                    sessions.push(Session {
                        word: order[next % order.len()],
                        submitted: Vec::new(),
                    });
                    next += 1;
                    submit(&mut sessions, id, round, Req::Open);
                    *slot = Some((id, 0));
                }
                let Some((id, pushed)) = *slot else { continue };
                any = true;
                let audio = &words[sessions[id].word].audio;
                let begin = pushed * CHUNK;
                if begin < audio.len() {
                    let chunk = &audio[begin..(begin + CHUNK).min(audio.len())];
                    submit(&mut sessions, id, round, Req::Push(chunk));
                    audio_s += chunk.len() as f64 / 44_100.0;
                    words_done += chunk.len() as f64 / audio.len() as f64;
                    *slot = Some((id, pushed + 1));
                } else {
                    submit(&mut sessions, id, round, Req::Finish);
                    finished += 1;
                    *slot = None;
                }
            }
            if !any {
                break;
            }
            let clock = Instant::now();
            manager.quiesce();
            driver_wait_s += clock.elapsed().as_secs_f64();
            if !stopping {
                let wall = round_start.elapsed().as_secs_f64();
                round_rtf.push((audio_s - round_audio) / wall);
                round_words.push((words_done - round_done) / wall);
            }
            if !stopping && start.elapsed().as_secs_f64() >= seconds {
                stopping = true;
                steady_wall_s = start.elapsed().as_secs_f64();
                steady_audio_s = audio_s;
                steady_sessions = finished;
            }
        }
        let report = manager.shutdown();
        let arrivals = receiver.join().expect("event receiver thread");
        (arrivals, report.metrics)
    });

    // Rebuild transcripts and stroke latencies from the timestamped events.
    let mut rows: BTreeMap<u64, Vec<Row>> = BTreeMap::new();
    let mut done: BTreeMap<u64, bool> = BTreeMap::new();
    let mut degraded = 0u64;
    let mut latencies_ms = Vec::new();
    let mut by_round: Vec<Vec<f64>> = vec![Vec::new(); round_rtf.len()];
    for (at, ev) in arrivals {
        match ev {
            ServeEvent::Segment { session, segment } => {
                let Some(c) = segment.classification else {
                    degraded += 1;
                    continue;
                };
                let list = rows.entry(session.0).or_default();
                let s = &sessions[session.0 as usize];
                let oracle = &oracles[s.word];
                if let Some(&k) = oracle.emitted_by.get(list.len()) {
                    if let Some(&(due, round)) = s.submitted.get(k) {
                        let ms = (at - due).as_secs_f64() * 1e3;
                        latencies_ms.push(ms);
                        if let Some(r) = by_round.get_mut(round) {
                            r.push(ms);
                        }
                    }
                }
                list.push(crate::inputs::row(
                    segment.start_frame as u64,
                    segment.end_frame as u64,
                    c.stroke,
                    &c.scores,
                ));
            }
            ServeEvent::Finished { session } => {
                done.insert(session.0, true);
            }
            ServeEvent::Reaped { .. } => {}
        }
    }
    let mut failures = Failures {
        refused,
        degraded,
        ..Failures::default()
    };
    for (id, s) in sessions.iter().enumerate() {
        let id = id as u64;
        if !done.get(&id).copied().unwrap_or(false) {
            failures.unfinished += 1;
        } else if !crate::inputs::transcript_matches(
            rows.get(&id).map_or(&[][..], Vec::as_slice),
            &oracles[s.word].rows,
        ) {
            failures.mismatched += 1;
        }
    }
    Flood {
        steady_wall_s,
        steady_audio_s,
        steady_sessions,
        round_rtf,
        round_words,
        sessions: sessions.len() as u64,
        failures,
        latencies_ms,
        round_latency_ms: by_round
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| stats::median(r))
            .collect(),
        metrics,
        submit_us,
        driver_wait_s,
    }
}

enum Req<'a> {
    Open,
    Push(&'a [f64]),
    Finish,
}

/// End-to-end metrics of a flood run.
pub fn end_to_end(report: &mut Report, f: &Flood) {
    report.metric("words_per_s", stats::median(&f.round_words), "1/s");
    report.metric("throughput_rtf", stats::median(&f.round_rtf), "x");
    report.metric(
        "stroke_latency_p50_ms",
        stats::median(&f.round_latency_ms),
        "ms",
    );
    report.note(format!(
        "# serve_flood: {} sessions ({} finished in the {:.3} s steady window), {:.1} s audio; \
         words_per_s (each push counting as its share of its word), throughput_rtf and \
         stroke_latency_p50_ms (each round's median) are medians over {} rounds; stroke \
         latency from the emitting push's submit to the event, {} samples, whole-run median \
         {:.4} ms",
        f.sessions,
        f.steady_sessions,
        f.steady_wall_s,
        f.steady_audio_s,
        f.round_rtf.len(),
        f.latencies_ms.len(),
        stats::median(&f.latencies_ms)
    ));
}

/// The `serve` layer metrics of a run; `push_us_mean` is the single-thread
/// replay's mean push time (µs), to split queue wait from service.
pub fn serve_layer(
    report: &mut Report,
    m: &MetricsSnapshot,
    submit_us: &[f64],
    driver_wait_s: f64,
    push_us_mean: f64,
) {
    let push_latency_ms = m.push_latency_sum_us as f64 / m.push_latency_count.max(1) as f64 / 1e3;
    report.metric(
        "serve.cmds_per_drain",
        m.pushes as f64 / m.batch_drains.max(1) as f64,
        "count",
    );
    report.metric("serve.submit_us", stats::mean(submit_us), "us");
    report.metric("serve.driver_wait_s", driver_wait_s, "s");
    report.metric("serve.push_latency_mean_ms", push_latency_ms, "ms");
    report.metric(
        "serve.queue_wait_ms",
        push_latency_ms - push_us_mean / 1e3,
        "ms",
    );
    report.metric("serve.queue_full", m.queue_full as f64, "count");
    report.metric("serve.shed", m.sessions_shed as f64, "count");
    report.metric("serve.pushes_degraded", m.pushes_degraded as f64, "count");
}
