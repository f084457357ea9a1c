//! `wire_paced`: an open loop over one loopback `WireServer` connection.
//! Sessions arrive on a seeded Poisson schedule at a fixed offered load,
//! each pushing one 5120-sample chunk per 116 ms of audio; a share of them
//! pause mid-word long enough for the reaper to suspend them into a
//! `MemoryStore`, and their next push thaws them. One thread sends on
//! schedule, a second timestamps every frame as it reaches the socket.

use crate::inputs::{self, Oracle, Rng, Row, Word, CHUNK};
use crate::layers;
use crate::{stats, sys};
use echowrite::{EchoWrite, Parallelism};
use echowrite_obs::ObsServer;
use echowrite_serve::{FlightOptions, MetricsSnapshot, ReapPolicy, ServeConfig, SessionManager};
use echowrite_snapshot::{MemoryStore, SnapshotStore};
use echowrite_wire::{encode_request, FrameDecoder, Request, Response, WireServer};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered load, in realtime sessions: on average this many users are
/// writing at once.
pub const LOAD: f64 = 256.0;

/// Distinct words written per run.
pub const POOL: usize = 48;

/// One session in this many pauses mid-word (if its pause fits in the run).
pub const PAUSE_EVERY: usize = 8;

/// Reaper idle threshold on each shard's sample clock, in chunks: twice
/// the offered load, so a writing session (one push per 116 ms, with about
/// `LOAD` other sessions' pushes in between even if all hit its shard) is
/// never idle for that long.
pub const IDLE_TIMEOUT_CHUNKS: usize = 512;

/// The idle threshold in samples.
pub const IDLE_TIMEOUT_SAMPLES: u64 = (IDLE_TIMEOUT_CHUNKS * CHUNK) as u64;

/// A pause lasts until this many pushes of non-pausing sessions have come
/// due: twice what the two shards together must process (the timeout plus
/// one 64-command reaper scan interval each) before they suspend the
/// pauser.
pub const PAUSE_PUSHES: usize = 2 * 2 * (IDLE_TIMEOUT_CHUNKS + 64);

/// Stroke latencies are grouped by their push's due time into slices this
/// long, seconds; see [`Paced::stroke_latency_p50_ms`].
pub const LATENCY_SLICE_S: f64 = 0.5;

/// The sender reads host steal at most this often, seconds.
const STEAL_READING_S: f64 = 0.1;

/// Seconds of audio per chunk.
const CHUNK_S: f64 = CHUNK as f64 / 44_100.0;

/// One scheduled request.
#[derive(Debug, Clone, Copy)]
pub struct Cmd {
    /// Due time, seconds after the schedule starts.
    pub due: f64,
    /// Session index.
    pub session: usize,
    /// What to send.
    pub kind: Kind,
}

/// The request kinds of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Open,
    /// Push of chunk `k`.
    Push(usize),
    Finish,
}

/// A seeded open-loop schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Commands in due order (ties keep session order).
    pub cmds: Vec<Cmd>,
    /// Each session's word.
    pub words: Vec<usize>,
    /// For each pausing session, the chunk its pause delays.
    pub pause_at: Vec<Option<usize>>,
    /// The arrival window, seconds: sessions open during it.
    pub window_s: f64,
}

impl Schedule {
    /// Sessions that pause (and so are suspended and resumed once each).
    pub fn pausers(&self) -> usize {
        self.pause_at.iter().filter(|p| p.is_some()).count()
    }

    /// Push requests in the schedule.
    pub fn pushes(&self) -> usize {
        self.cmds
            .iter()
            .filter(|c| matches!(c.kind, Kind::Push(_)))
            .count()
    }
}

/// Builds the schedule: arrivals at a fixed rate of [`LOAD`] realtime
/// sessions for `seconds` (one per slot of `1/rate`, at a seeded point in
/// its slot), words dealt from seeded shuffles of the pool, each session's
/// chunk `k` due when its audio has been captured, and every
/// [`PAUSE_EVERY`]-th session pausing at its mid-word chunk boundary until
/// [`PAUSE_PUSHES`] non-pausing pushes have come due. A would-be pauser
/// whose pause cannot be filled before the run's traffic ends writes
/// straight through instead.
pub fn schedule(seed: u64, words: &[Word], seconds: f64) -> Schedule {
    let mut rng = Rng::new(seed, 4);
    let mean_s = words.iter().map(Word::seconds).sum::<f64>() / words.len() as f64;
    let rate = LOAD / mean_s;
    let deal = balanced_order(words);
    let first = rng.below(deal.len());
    let arrivals: Vec<(f64, usize)> = (0..(seconds * rate) as usize)
        .map(|i| {
            (
                (i as f64 + rng.unit()) / rate,
                deal[(first + i) % deal.len()],
            )
        })
        .collect();
    // Pushes of sessions that never pause, in due order: they fix the
    // pause lengths.
    let wants_pause = |i: usize| i % PAUSE_EVERY == PAUSE_EVERY - 1;
    let mut steady: Vec<f64> = Vec::new();
    for (i, &(t0, w)) in arrivals.iter().enumerate() {
        if !wants_pause(i) {
            let pushes = words[w].audio.len().div_ceil(CHUNK);
            steady.extend((0..pushes).map(|k| t0 + (k + 1) as f64 * CHUNK_S));
        }
    }
    steady.sort_by(f64::total_cmp);

    let mut cmds = Vec::new();
    let mut pause_at = Vec::new();
    for (i, &(t0, w)) in arrivals.iter().enumerate() {
        let pushes = words[w].audio.len().div_ceil(CHUNK);
        let stop = layers::pause_chunk(words[w].audio.len());
        let pause_s = if wants_pause(i) {
            let from = t0 + stop as f64 * CHUNK_S;
            let first = steady.partition_point(|&d| d <= from);
            steady.get(first + PAUSE_PUSHES).map(|&d| d - from)
        } else {
            None
        };
        pause_at.push(pause_s.map(|_| stop));
        cmds.push(Cmd {
            due: t0,
            session: i,
            kind: Kind::Open,
        });
        for k in 0..pushes {
            let mut due = t0 + (k + 1) as f64 * CHUNK_S;
            if k >= stop {
                due += pause_s.unwrap_or(0.0);
            }
            cmds.push(Cmd {
                due,
                session: i,
                kind: Kind::Push(k),
            });
        }
        let last = cmds.last().map_or(t0, |c| c.due);
        cmds.push(Cmd {
            due: last,
            session: i,
            kind: Kind::Finish,
        });
    }
    cmds.sort_by(|a, b| a.due.total_cmp(&b.due));
    Schedule {
        cmds,
        words: arrivals.iter().map(|a| a.1).collect(),
        pause_at,
        window_s: seconds,
    }
}

/// The pool's words in the order sessions take them: ranked by duration,
/// then dealt in bit-reversed rank order, so any run of consecutive
/// arrivals mixes long and short words evenly and the load each second
/// carries varies little with the seed.
fn balanced_order(words: &[Word]) -> Vec<usize> {
    let mut by_length: Vec<usize> = (0..words.len()).collect();
    by_length.sort_by_key(|&i| words[i].audio.len());
    let bits = usize::BITS - (words.len().max(2) - 1).leading_zeros();
    (0..1usize << bits)
        .map(|r| r.reverse_bits() >> (usize::BITS - bits))
        .filter_map(|rank| by_length.get(rank).copied())
        .collect()
}

/// The largest number of other sessions' pushes due between two
/// consecutive commands of one session, outside its pause. Times
/// [`CHUNK`], it bounds how far a shard's clock can advance under a
/// writing session, which must stay below the idle timeout.
pub fn max_gap_pushes(s: &Schedule) -> usize {
    let mut seen: BTreeMap<usize, usize> = BTreeMap::new();
    let mut pushes_so_far = 0usize;
    let mut worst = 0usize;
    for c in &s.cmds {
        let resuming = matches!(c.kind, Kind::Push(k) if Some(k) == s.pause_at[c.session]);
        if let Some(&at) = seen.get(&c.session) {
            if !resuming {
                worst = worst.max(pushes_so_far - at);
            }
        }
        if let Kind::Push(_) = c.kind {
            pushes_so_far += 1;
        }
        seen.insert(c.session, pushes_so_far);
    }
    worst
}

/// The server side of one run, as set up (and timed) before the loop.
pub struct Stack {
    pub server: WireServer,
    pub obs: ObsServer,
    pub client: TcpStream,
    pub store: Arc<MemoryStore>,
}

/// Builds the serving stack: manager over a memory store with
/// suspend-to-store reaping, wire server, admin plane, one connection.
pub fn stack(engine: &EchoWrite) -> Stack {
    let store = Arc::new(MemoryStore::new());
    let manager = SessionManager::with_snapshot_store(
        engine.clone(),
        ServeConfig {
            shards: Parallelism::Threads(2),
            queue_capacity: 1024,
            max_sessions: 4096,
            high_water: 4096,
            deadline_chunks: None,
            idle_timeout_samples: Some(IDLE_TIMEOUT_SAMPLES),
            batch_max: 8,
            reap_policy: ReapPolicy::SuspendToStore,
            flight: FlightOptions {
                artifact_dir: None,
                churn_threshold: 0,
                ..FlightOptions::default()
            },
        },
        store.clone(),
    )
    .expect("valid serve config");
    let server = WireServer::bind("127.0.0.1:0", manager).expect("loopback bind");
    let obs = ObsServer::bind("127.0.0.1:0", server.manager_handle()).expect("loopback bind");
    let client = TcpStream::connect(server.local_addr()).expect("loopback connect");
    client.set_nodelay(true).expect("nodelay");
    Stack {
        server,
        obs,
        client,
        store,
    }
}

/// Tears a stack down, returning the manager's final metrics.
pub fn teardown(stack: Stack) -> MetricsSnapshot {
    drop(stack.client);
    stack.obs.shutdown();
    stack.server.shutdown().metrics
}

/// What one paced run measured.
#[derive(Debug, Default)]
pub struct Paced {
    pub sessions: u64,
    pub pausers: u64,
    pub audio_s: f64,
    pub wall_s: f64,
    /// The arrival window, seconds.
    pub window_s: f64,
    /// Words whose push verdicts arrived in the second half of the arrival
    /// window, when the load has reached its steady level; each push counts
    /// as its share of its word.
    pub words_in_steady: f64,
    /// Audio seconds whose push verdict arrived in that half.
    pub audio_in_steady: f64,
    pub stroke_latency_ms: Vec<f64>,
    /// Due time of the emitting push of each `stroke_latency_ms` sample,
    /// seconds after the schedule starts.
    pub stroke_due_s: Vec<f64>,
    /// Host steal readings `(s after the schedule starts, ms so far)`.
    pub steal_readings: Vec<(f64, f64)>,
    pub late_ms: Vec<f64>,
    pub verdict_rtt_ms: Vec<f64>,
    pub mismatched: u64,
    pub unfinished: u64,
    pub refused: u64,
    pub degraded: u64,
    pub scrape_ms: f64,
    /// Scraped counters that disagreed with the generator's own counts.
    pub scrape_mismatches: Vec<String>,
    pub metrics: Option<MetricsSnapshot>,
    pub error: Option<String>,
}

impl Paced {
    pub fn failures(&self) -> u64 {
        self.mismatched + self.unfinished + self.refused + self.degraded
    }

    /// The headline latency: the second half of the arrival window (when
    /// the load is at its steady level) is cut into [`LATENCY_SLICE_S`]
    /// slices by the emitting push's due time, and the median is taken
    /// over the stroke latencies of the slices with the least host steal
    /// (at most the lower quartile of the slices' steal). Every latency
    /// tracks the steal of its slice, so this measures the program, not
    /// the neighbours on the host.
    pub fn stroke_latency_p50_ms(&self) -> stats::Quiet {
        let samples: Vec<(f64, f64)> = self
            .stroke_due_s
            .iter()
            .copied()
            .zip(self.stroke_latency_ms.iter().copied())
            .collect();
        stats::quiet_median(
            &samples,
            &self.steal_readings,
            self.window_s / 2.0,
            self.window_s,
            LATENCY_SLICE_S,
        )
    }
}

/// A frame as it reached the client socket.
struct Arrival {
    at: Instant,
    resp: Response,
}

/// Runs the schedule over `stack`'s connection and checks every
/// transcript against its oracle, then scrapes `/metrics` and compares its
/// counters with the generator's own.
pub fn run(stack: Stack, words: &[Word], oracles: &[Oracle], sched: &Schedule) -> Paced {
    let mut out = Paced {
        sessions: sched.words.len() as u64,
        pausers: sched.pausers() as u64,
        window_s: sched.window_s,
        ..Paced::default()
    };
    let expected_verdicts = sched.cmds.len();
    let expected_finished = sched.words.len();
    let mut reader = stack.client.try_clone().expect("clone client socket");
    reader
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut writer = stack.client.try_clone().expect("clone client socket");
    let t0 = Instant::now() + Duration::from_millis(20);

    let (sent, steal_readings, arrivals) = std::thread::scope(|scope| {
        let receiver = scope.spawn(move || {
            let mut got: Vec<Arrival> = Vec::new();
            let mut dec = FrameDecoder::new();
            let mut buf = vec![0u8; 256 * 1024];
            let (mut verdicts, mut finished) = (0usize, 0usize);
            while verdicts < expected_verdicts || finished < expected_finished {
                let n = match reader.read(&mut buf) {
                    Ok(0) => return Err("server closed the connection".to_string()),
                    Ok(n) => n,
                    Err(e) => return Err(format!("read: {e}")),
                };
                let at = Instant::now();
                dec.extend(&buf[..n]);
                loop {
                    match dec.next_response() {
                        Ok(Some(resp)) => {
                            if resp.is_verdict() {
                                verdicts += 1;
                            } else if matches!(resp, Response::Finished { .. }) {
                                finished += 1;
                            }
                            got.push(Arrival { at, resp });
                        }
                        Ok(None) => break,
                        Err(e) => return Err(format!("frame: {e}")),
                    }
                }
            }
            Ok(got)
        });

        let mut sent: Vec<Instant> = Vec::with_capacity(sched.cmds.len());
        let mut steal = Vec::new();
        let mut next_reading = 0.0;
        let mut frame = Vec::new();
        let mut send_error = None;
        for (i, c) in sched.cmds.iter().enumerate() {
            let due = t0 + Duration::from_secs_f64(c.due);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let session = c.session as u64;
            let req = match c.kind {
                Kind::Open => Request::Open { session },
                Kind::Push(k) => {
                    let audio = &words[sched.words[c.session]].audio;
                    let begin = k * CHUNK;
                    Request::Push {
                        session,
                        samples: audio[begin..(begin + CHUNK).min(audio.len())].to_vec(),
                    }
                }
                Kind::Finish => Request::Finish { session },
            };
            frame.clear();
            encode_request(&mut frame, &req, i as u64 + 1);
            sent.push(Instant::now());
            if let Err(e) = writer.write_all(&frame) {
                send_error = Some(format!("write: {e}"));
                break;
            }
            // After the send, so the reading never delays one.
            if c.due >= next_reading {
                let at = Instant::now().saturating_duration_since(t0);
                steal.push((at.as_secs_f64(), sys::host_steal_ms()));
                next_reading = c.due + STEAL_READING_S;
            }
        }
        let got = receiver.join().expect("receiver thread");
        (sent, steal, got.map_err(|e| send_error.unwrap_or(e)))
    });
    out.steal_readings = steal_readings;
    let arrivals = match arrivals {
        Ok(a) => a,
        Err(e) => {
            out.error = Some(e);
            out.metrics = Some(teardown(stack));
            return out;
        }
    };

    let due = |i: usize| t0 + Duration::from_secs_f64(sched.cmds[i].due);
    out.late_ms = sent
        .iter()
        .enumerate()
        .map(|(i, s)| (*s - due(i)).as_secs_f64() * 1e3)
        .collect();
    // Due time of each session's push k (and of its finish, at k = pushes).
    let mut due_of: BTreeMap<(usize, usize), Instant> = BTreeMap::new();
    for (i, c) in sched.cmds.iter().enumerate() {
        let k = match c.kind {
            Kind::Push(k) => k,
            Kind::Finish => oracles[sched.words[c.session]].pushes,
            Kind::Open => continue,
        };
        due_of.insert((c.session, k), due(i));
    }
    let mut rows: BTreeMap<usize, Vec<Row>> = BTreeMap::new();
    let mut finished = vec![false; sched.words.len()];
    let mut last = t0;
    let half = Duration::from_secs_f64(sched.window_s / 2.0);
    let steady = |at: Instant| at > t0 + half && at <= t0 + 2 * half;
    for a in &arrivals {
        last = last.max(a.at);
        match &a.resp {
            Response::Enqueued { request_id, .. } => {
                let i = request_id.wrapping_sub(1) as usize;
                if let Some(s) = sent.get(i) {
                    out.verdict_rtt_ms.push((a.at - *s).as_secs_f64() * 1e3);
                }
                if let (Some(c), true) = (sched.cmds.get(i), steady(a.at)) {
                    if let Kind::Push(k) = c.kind {
                        let len = words[sched.words[c.session]].audio.len();
                        let chunk = (len - k * CHUNK).min(CHUNK) as f64;
                        out.audio_in_steady += chunk / 44_100.0;
                        out.words_in_steady += chunk / len as f64;
                    }
                }
            }
            Response::Segment {
                session,
                start_frame,
                end_frame,
                classification,
            } => {
                let Some(c) = classification else {
                    out.degraded += 1;
                    continue;
                };
                let s = *session as usize;
                let list = rows.entry(s).or_default();
                if let Some(&k) = sched
                    .words
                    .get(s)
                    .and_then(|&w| oracles[w].emitted_by.get(list.len()))
                {
                    if let Some(&d) = due_of.get(&(s, k)) {
                        out.stroke_latency_ms.push((a.at - d).as_secs_f64() * 1e3);
                        out.stroke_due_s.push((d - t0).as_secs_f64());
                    }
                }
                list.push(inputs::row(*start_frame, *end_frame, c.stroke, &c.scores));
            }
            Response::Finished { session } => {
                if let Some(f) = finished.get_mut(*session as usize) {
                    *f = true;
                }
            }
            _ => out.refused += 1,
        }
    }
    out.wall_s = (last - t0).as_secs_f64();
    for (s, &w) in sched.words.iter().enumerate() {
        out.audio_s += words[w].seconds();
        if !finished[s] {
            out.unfinished += 1;
        } else if !inputs::transcript_matches(
            rows.get(&s).map_or(&[][..], Vec::as_slice),
            &oracles[w].rows,
        ) {
            out.mismatched += 1;
        }
    }

    // Every command has been answered; let the shards settle their
    // counters, then scrape the admin plane once.
    if let Some(manager) = stack.server.manager_handle().upgrade() {
        manager.quiesce();
    }
    let clock = Instant::now();
    let scraped = http_get(stack.obs.local_addr(), "/metrics");
    out.scrape_ms = clock.elapsed().as_secs_f64() * 1e3;
    match scraped {
        Ok(body) => {
            let pushes = sched.pushes() as u64;
            let expect = [
                ("echowrite_serve_pushes_total", pushes),
                ("echowrite_serve_sessions_opened_total", out.sessions),
                ("echowrite_serve_sessions_finished_total", out.sessions),
                ("echowrite_serve_sessions_suspended_total", out.pausers),
                ("echowrite_serve_sessions_resumed_total", out.pausers),
                (
                    "echowrite_serve_wire_frames_read_total",
                    sched.cmds.len() as u64,
                ),
            ];
            for (name, want) in expect {
                let got = counter(&body, name);
                if got != Some(want) {
                    out.scrape_mismatches
                        .push(format!("{name}: scraped {got:?}, generator counted {want}"));
                }
            }
        }
        Err(e) => out.scrape_mismatches.push(format!("/metrics: {e}")),
    }
    let residual = stack
        .store
        .sessions()
        .map(|s| s.len())
        .unwrap_or(usize::MAX);
    if residual != 0 {
        out.scrape_mismatches
            .push(format!("{residual} snapshots left in the store"));
    }
    out.metrics = Some(teardown(stack));
    out
}

/// The value of an unlabelled counter in a Prometheus exposition.
fn counter(body: &str, name: &str) -> Option<u64> {
    body.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse::<f64>().ok())
        .map(|v| v as u64)
}

/// One blocking HTTP GET; returns the body of a 200 response.
fn http_get(addr: SocketAddr, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    if !response.starts_with("HTTP/1.1 200") {
        return Err(format!("status line {:?}", response.lines().next()));
    }
    Ok(response
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default())
}

/// Median and p99 of a sample, ms.
pub fn p50_p99(v: &[f64]) -> (f64, f64) {
    let s = stats::sorted(v);
    (stats::quantile(&s, 0.5), stats::quantile(&s, 0.99))
}
