//! The loopback client fleet (DESIGN.md §6.9): replays N synthetic
//! recognition sessions over C real TCP connections against a
//! [`WireServer`], checks every wire transcript bitwise against the
//! isolated in-process recognizer, and reports aggregate realtime factor
//! plus request round-trip percentiles — the numbers in `BENCH_wire.json`.
//!
//! ```text
//! cargo run --release -p echowrite-bench --bin wire_fleet -- \
//!     --sessions 512 --conns 16 --shards 4 [--smoke] [--json out.json]
//! ```
//!
//! Each connection multiplexes `sessions / conns` sessions, driving them
//! round-robin one chunk at a time with at most one request outstanding
//! per connection (the server answers verdicts in request order, so the
//! next verdict always resolves the RTT of the request just sent). A
//! `QueueFull` verdict re-submits the same chunk after draining buffered
//! events; `Shedding` aborts the run — admission is configured to accept
//! the whole fleet, so a shed is a bug worth failing on.
//!
//! After the plain fleet, a second **suspend/resume** phase (DESIGN.md
//! §6.10) replays the same fleet against a `SuspendToStore` manager: every
//! odd session pauses mid-word, pump traffic ages it past the reap
//! threshold so the reaper suspends it into the snapshot store, and a bare
//! late `Push` thaws it. Transcripts must still match the oracle bitwise;
//! the numbers land in `BENCH_snapshot.json` together with in-process
//! snapshot/restore latency and bytes-per-session.

use echowrite::{EchoWrite, EchoWriteConfig, Parallelism, StreamingRecognizer, StreamingSession};
use echowrite_bench::stitch::{self, ClientTrace};
use echowrite_gesture::{Stroke, Writer, WriterParams};
use echowrite_obs::ObsServer;
use echowrite_profile::Stopwatch;
use echowrite_serve::{FlightOptions, ReapPolicy, ServeConfig, SessionManager};
use echowrite_snapshot::{restore_session, snapshot_session, MemoryStore, SnapshotStore};
use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};
use echowrite_wire::{Request, Response, WireClient, WireServer};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::process::ExitCode;
use std::sync::{Arc, Barrier, OnceLock};

/// The Android app's 5-frame push size.
const CHUNK: usize = 5 * 1024;

/// Idle threshold for the suspend phase, on the shard's logical sample
/// clock. Large enough that round-robin resume traffic (≈ sessions/shard
/// × CHUNK samples between a session's consecutive pushes) never re-reaps
/// a session mid-resume, small against the pump phase's aging traffic.
const SUSPEND_IDLE_TIMEOUT: u64 = 1_000_000;

/// Throwaway sessions that push silence after the fleet's even half
/// finishes, advancing every shard's logical clock past
/// [`SUSPEND_IDLE_TIMEOUT`] so the reaper provably visits the idle half.
/// Spread across shards by the same id hash as real sessions.
const PUMP_SESSIONS: usize = 64;

/// Silence chunks each pump session pushes: per shard this is far more
/// than `SUSPEND_IDLE_TIMEOUT / CHUNK` commands and clock samples even if
/// the id hash distributes pump sessions unevenly.
const PUMP_PUSHES: usize = 80;

/// A transcript row, scores compared bitwise.
type Row = (u64, u64, Stroke, [f64; 6]);

struct Args {
    sessions: usize,
    conns: usize,
    shards: usize,
    json: Option<String>,
    snapshot_json: Option<String>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        sessions: 512,
        conns: 16,
        shards: 4,
        json: None,
        snapshot_json: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--sessions" => {
                let v = it.next().ok_or("--sessions needs a value")?;
                args.sessions = v.parse().map_err(|e| format!("--sessions: {e}"))?;
            }
            "--conns" => {
                let v = it.next().ok_or("--conns needs a value")?;
                args.conns = v.parse().map_err(|e| format!("--conns: {e}"))?;
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.shards = v.parse().map_err(|e| format!("--shards: {e}"))?;
            }
            "--json" => args.json = Some(it.next().ok_or("--json needs a path")?),
            "--snapshot-json" => {
                args.snapshot_json = Some(it.next().ok_or("--snapshot-json needs a path")?);
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.smoke {
        args.sessions = args.sessions.min(64);
        args.conns = args.conns.min(8);
    }
    if args.sessions == 0 || args.conns == 0 || args.conns > args.sessions {
        return Err("need sessions >= conns >= 1".into());
    }
    Ok(args)
}

/// The down-converted serving engine every fleet session runs.
fn engine() -> &'static EchoWrite {
    static E: OnceLock<EchoWrite> = OnceLock::new();
    E.get_or_init(|| EchoWrite::with_config(EchoWriteConfig::streaming_downsampled(32)))
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

/// The base audios sessions cycle through (session k plays base k % 4),
/// each with its isolated in-process oracle transcript.
fn bases() -> &'static Vec<(Vec<f64>, Vec<Row>)> {
    static B: OnceLock<Vec<(Vec<f64>, Vec<Row>)>> = OnceLock::new();
    B.get_or_init(|| {
        let audios = [
            render(&[Stroke::S2, Stroke::S5], 11, 1.2),
            render(&[Stroke::S4], 23, 1.0),
            render(&[Stroke::S3, Stroke::S6], 31, 0.0),
            render(&[Stroke::S1, Stroke::S2], 47, 1.1),
        ];
        audios
            .into_iter()
            .map(|audio| {
                let mut rec = StreamingRecognizer::new(engine());
                let mut rows: Vec<Row> = Vec::new();
                for chunk in audio.chunks(CHUNK) {
                    for ev in rec.push(chunk) {
                        rows.push((
                            ev.start_frame as u64,
                            ev.end_frame as u64,
                            ev.classification.stroke,
                            ev.classification.scores,
                        ));
                    }
                }
                for ev in rec.finish() {
                    rows.push((
                        ev.start_frame as u64,
                        ev.end_frame as u64,
                        ev.classification.stroke,
                        ev.classification.scores,
                    ));
                }
                (audio, rows)
            })
            .collect()
    })
}

/// What one connection thread brings home.
struct ConnReport {
    /// Round-trip times, one per request, in microseconds.
    rtts_us: Vec<u64>,
    /// `QueueFull` verdicts absorbed (each retried until enqueued).
    queue_full: u64,
    /// Wire transcripts per session id.
    transcripts: BTreeMap<u64, Vec<Row>>,
    /// Fatal error description, if the connection died.
    error: Option<String>,
}

/// One request outstanding at a time: send, block for the verdict,
/// retry on QueueFull. RTT covers send → verdict.
fn ask(client: &mut WireClient, req: &Request, report: &mut ConnReport) -> bool {
    loop {
        let timer = Stopwatch::start();
        match client.request(req) {
            Ok(Response::Enqueued { .. }) => {
                report.rtts_us.push((timer.elapsed_ms() * 1_000.0) as u64);
                return true;
            }
            Ok(Response::QueueFull { .. }) => {
                report.rtts_us.push((timer.elapsed_ms() * 1_000.0) as u64);
                report.queue_full += 1;
                // Back off briefly so retries don't saturate the wire
                // while the shard drains (bench crate is time-exempt).
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            Ok(other) => {
                report.error = Some(format!("unexpected verdict {other:?}"));
                return false;
            }
            Err(e) => {
                report.error = Some(format!("request: {e}"));
                return false;
            }
        }
    }
}

/// Drives this connection's sessions round-robin, one chunk per turn,
/// then drains events until every owned session has finished.
fn run_connection(addr: std::net::SocketAddr, ids: Vec<u64>) -> ConnReport {
    let mut report = ConnReport {
        rtts_us: Vec::new(),
        queue_full: 0,
        transcripts: ids.iter().map(|&id| (id, Vec::new())).collect(),
        error: None,
    };
    let mut client = match WireClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            report.error = Some(format!("connect: {e}"));
            return report;
        }
    };
    for &id in &ids {
        if !ask(&mut client, &Request::Open { session: id }, &mut report) {
            return report;
        }
    }
    let mut cursors: BTreeMap<u64, usize> = ids.iter().map(|&id| (id, 0)).collect();
    let mut live: Vec<u64> = ids.clone();
    while !live.is_empty() {
        let mut still = Vec::with_capacity(live.len());
        for &id in &live {
            let audio = &bases()[(id as usize) % bases().len()].0;
            let pos = cursors[&id];
            let end = (pos + CHUNK).min(audio.len());
            let req = Request::Push { session: id, samples: audio[pos..end].to_vec() };
            if !ask(&mut client, &req, &mut report) {
                return report;
            }
            cursors.insert(id, end);
            if end == audio.len() {
                if !ask(&mut client, &Request::Finish { session: id }, &mut report) {
                    return report;
                }
            } else {
                still.push(id);
            }
        }
        live = still;
    }

    let mut finished = 0usize;
    while finished < ids.len() {
        match client.next_event() {
            Ok(Response::Segment { session, start_frame, end_frame, classification }) => {
                let Some(cls) = classification else {
                    report.error = Some(format!("degraded segment on session {session}"));
                    return report;
                };
                if let Some(rows) = report.transcripts.get_mut(&session) {
                    rows.push((start_frame, end_frame, cls.stroke, cls.scores));
                }
            }
            Ok(Response::Finished { .. }) => finished += 1,
            Ok(other) => {
                report.error = Some(format!("unexpected event {other:?}"));
                return report;
            }
            Err(e) => {
                report.error = Some(format!("event stream: {e}"));
                return report;
            }
        }
    }
    report
}

/// Pushes `ids` round-robin, one chunk per turn, from each id's cursor up
/// to its end position, finishing each as it drains. Returns false (with
/// `report.error` set) on any wire failure.
fn drive(
    client: &mut WireClient,
    report: &mut ConnReport,
    cursors: &mut BTreeMap<u64, usize>,
    ends: &BTreeMap<u64, usize>,
    finish: bool,
    ids: &[u64],
) -> bool {
    let mut live: Vec<u64> = ids.iter().copied().filter(|id| cursors[id] < ends[id]).collect();
    // An id already at its end still gets its Finish below.
    let mut done: Vec<u64> = ids.iter().copied().filter(|id| cursors[id] >= ends[id]).collect();
    while !live.is_empty() {
        let mut still = Vec::with_capacity(live.len());
        for &id in &live {
            let audio = &bases()[(id as usize) % bases().len()].0;
            let pos = cursors[&id];
            let end = (pos + CHUNK).min(ends[&id]);
            let req = Request::Push { session: id, samples: audio[pos..end].to_vec() };
            if !ask(client, &req, report) {
                return false;
            }
            cursors.insert(id, end);
            if end == ends[&id] {
                done.push(id);
            } else {
                still.push(id);
            }
        }
        live = still;
    }
    if finish {
        for id in done {
            if !ask(client, &Request::Finish { session: id }, report) {
                return false;
            }
        }
    }
    true
}

/// Blocks until `expected` sessions have finished, recording segment rows
/// for ids present in `report.transcripts` (pump sessions are not).
fn drain_events(client: &mut WireClient, report: &mut ConnReport, expected: usize) -> bool {
    let mut finished = 0usize;
    while finished < expected {
        match client.next_event() {
            Ok(Response::Segment { session, start_frame, end_frame, classification }) => {
                let Some(cls) = classification else {
                    report.error = Some(format!("degraded segment on session {session}"));
                    return false;
                };
                if let Some(rows) = report.transcripts.get_mut(&session) {
                    rows.push((start_frame, end_frame, cls.stroke, cls.scores));
                }
            }
            Ok(Response::Finished { .. }) => finished += 1,
            Ok(other) => {
                report.error = Some(format!("unexpected event {other:?}"));
                return false;
            }
            Err(e) => {
                report.error = Some(format!("event stream: {e}"));
                return false;
            }
        }
    }
    true
}

/// The suspend-phase connection driver. Even fleet ids run to completion;
/// odd ids pause at a mid-word push boundary and only resume after the
/// pump traffic has aged them past the reap threshold, so their resume
/// `Push` lands on a suspended session and must thaw it. The two barriers
/// order the phases *across* connections: all idle sessions quiet before
/// any pumping, all pumping done before any resume.
fn run_suspend_connection(
    addr: std::net::SocketAddr,
    ids: Vec<u64>,
    pump_ids: Vec<u64>,
    barrier: &Barrier,
) -> ConnReport {
    let mut report = ConnReport {
        rtts_us: Vec::new(),
        queue_full: 0,
        transcripts: ids.iter().map(|&id| (id, Vec::new())).collect(),
        error: None,
    };
    let mut client = match WireClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            report.error = Some(format!("connect: {e}"));
            // Hold up our end of both barriers so healthy peers proceed.
            barrier.wait();
            barrier.wait();
            return report;
        }
    };
    let audio_len = |id: u64| bases()[(id as usize) % bases().len()].0.len();
    // Every odd session pauses at the last whole-chunk boundary before the
    // midpoint — mid-word, and mid-stroke for most of the base audios.
    let pause: BTreeMap<u64, usize> =
        ids.iter().map(|&id| (id, (audio_len(id) / 2 / CHUNK) * CHUNK)).collect();
    let full: BTreeMap<u64, usize> = ids.iter().map(|&id| (id, audio_len(id))).collect();
    let mut cursors: BTreeMap<u64, usize> = ids.iter().map(|&id| (id, 0)).collect();
    let busy: Vec<u64> = ids.iter().copied().filter(|id| id % 2 == 0).collect();
    let idle: Vec<u64> = ids.iter().copied().filter(|id| id % 2 == 1).collect();

    let mut ok = ids.iter().chain(&pump_ids).all(|&id| {
        ask(&mut client, &Request::Open { session: id }, &mut report)
    });
    // First half for everyone (the idle half's last activity), then the
    // busy half straight through to Finish.
    ok = ok && drive(&mut client, &mut report, &mut cursors, &pause, false, &ids);
    ok = ok && drive(&mut client, &mut report, &mut cursors, &full, true, &busy);
    barrier.wait();

    // Aging: silence through the pump sessions advances every shard's
    // logical clock and command count past the reap threshold while the
    // idle half stays quiet, so the reaper suspends it to the store.
    if ok {
        let silence = vec![0.0f64; CHUNK];
        'pump: for _ in 0..PUMP_PUSHES {
            for &id in &pump_ids {
                let req = Request::Push { session: id, samples: silence.clone() };
                if !ask(&mut client, &req, &mut report) {
                    ok = false;
                    break 'pump;
                }
            }
        }
        for &id in &pump_ids {
            if !(ok && ask(&mut client, &Request::Finish { session: id }, &mut report)) {
                ok = false;
                break;
            }
        }
    }
    barrier.wait();

    // Resume: a bare Push on a suspended id must thaw it transparently —
    // no re-Open, no replay of the first half.
    ok = ok && drive(&mut client, &mut report, &mut cursors, &full, true, &idle);
    if ok {
        drain_events(&mut client, &mut report, ids.len() + pump_ids.len());
    }
    report
}

/// In-process snapshot/restore micro-measurement: each base audio's
/// session is frozen at its mid-word pause point and checkpointed
/// repeatedly, timing `snapshot_session` and `restore_session` and
/// recording the encoded size.
fn checkpoint_micro() -> (Vec<f64>, Vec<f64>, Vec<usize>) {
    let engine = engine();
    let (mut snap_us, mut rest_us, mut sizes) = (Vec::new(), Vec::new(), Vec::new());
    for (audio, _) in bases() {
        let mut session = StreamingSession::new(engine);
        let mut sink = Vec::new();
        let pause = (audio.len() / 2 / CHUNK) * CHUNK;
        for chunk in audio[..pause].chunks(CHUNK) {
            session.push_events(engine, chunk, true, &mut sink);
        }
        for _ in 0..50 {
            let timer = Stopwatch::start();
            let bytes = snapshot_session(&session, engine);
            snap_us.push(timer.elapsed_ms() * 1_000.0);
            sizes.push(bytes.len());
            let timer = Stopwatch::start();
            let restored = restore_session(&bytes, engine).expect("own snapshot restores");
            rest_us.push(timer.elapsed_ms() * 1_000.0);
            drop(restored);
        }
    }
    (snap_us, rest_us, sizes)
}

fn percentile_f64(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs the suspend/resume fleet plus the checkpoint micro-measurement
/// and renders `BENCH_snapshot.json`. Returns `(json, ok)`.
fn run_suspend_phase(args: &Args) -> (String, bool) {
    let store = Arc::new(MemoryStore::new());
    let manager = SessionManager::with_snapshot_store(
        engine().clone(),
        ServeConfig {
            shards: Parallelism::Threads(args.shards),
            queue_capacity: 256,
            max_sessions: args.sessions + PUMP_SESSIONS + 8,
            high_water: args.sessions + PUMP_SESSIONS + 8,
            deadline_chunks: None,
            idle_timeout_samples: Some(SUSPEND_IDLE_TIMEOUT),
            batch_max: 8,
            reap_policy: ReapPolicy::SuspendToStore,
            ..ServeConfig::default()
        },
        store.clone(),
    )
    .expect("valid serve config");
    let server = WireServer::bind("127.0.0.1:0", manager).expect("loopback bind");
    let addr = server.local_addr();

    let barrier = Barrier::new(args.conns);
    let wall = Stopwatch::start();
    let reports: Vec<ConnReport> = std::thread::scope(|scope| {
        let barrier = &barrier;
        let handles: Vec<_> = (0..args.conns)
            .map(|c| {
                let ids: Vec<u64> =
                    (0..args.sessions).filter(|k| k % args.conns == c).map(|k| k as u64).collect();
                let pump_ids: Vec<u64> = (0..PUMP_SESSIONS)
                    .filter(|k| k % args.conns == c)
                    .map(|k| (args.sessions + k) as u64)
                    .collect();
                scope.spawn(move || run_suspend_connection(addr, ids, pump_ids, barrier))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let wall_s = wall.elapsed_ms() / 1e3;
    let report = server.shutdown();
    let m = &report.metrics;
    let residual = store.sessions().map(|s| s.len()).unwrap_or(usize::MAX);

    let mut ok = true;
    let mut mismatches = 0usize;
    let mut checked = 0usize;
    let mut requests = 0usize;
    let mut queue_full_retries = 0u64;
    for r in &reports {
        if let Some(e) = &r.error {
            eprintln!("wire_fleet[suspend]: connection error: {e}");
            ok = false;
        }
        requests += r.rtts_us.len();
        queue_full_retries += r.queue_full;
        for (&id, rows) in &r.transcripts {
            checked += 1;
            if rows != &bases()[(id as usize) % bases().len()].1 {
                mismatches += 1;
                if mismatches <= 3 {
                    eprintln!(
                        "wire_fleet[suspend]: session {id} transcript diverged across suspend/resume"
                    );
                }
            }
        }
    }
    let idle_half = args.sessions / 2;
    if mismatches > 0 || checked != args.sessions {
        ok = false;
    }
    // Every idle session must actually have been suspended and thawed —
    // otherwise the phase silently measured nothing.
    if m.sessions_suspended < idle_half as u64 || m.sessions_resumed < idle_half as u64 {
        eprintln!(
            "wire_fleet[suspend]: only {}/{idle_half} suspended, {} resumed",
            m.sessions_suspended, m.sessions_resumed
        );
        ok = false;
    }
    if m.orphan_commands != 0 || residual != 0 {
        eprintln!(
            "wire_fleet[suspend]: {} orphan commands, {residual} snapshots left in the store",
            m.orphan_commands
        );
        ok = false;
    }

    let (mut snap_us, mut rest_us, mut sizes) = checkpoint_micro();
    snap_us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    rest_us.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    sizes.sort_unstable();
    let bytes_mean = sizes.iter().sum::<usize>() as f64 / sizes.len().max(1) as f64;

    let env = echowrite_bench::bench_environment();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"crates/bench/src/bin/wire_fleet.rs\",\n",
            "  \"command\": \"cargo run --release -p echowrite-bench --bin wire_fleet -- ",
            "--sessions {sessions} --conns {conns} --shards {shards} ",
            "--snapshot-json BENCH_snapshot.json\",\n",
            "  \"environment\": {{\n",
            "    \"cpus\": {cpus},\n",
            "    \"cgroup_cpu_quota\": {quota},\n",
            "    \"effective_parallelism\": {par},\n",
            "    \"simd_backend\": \"{simd}\",\n",
            "    \"simd_features\": [{features}]\n",
            "  }},\n",
            "  \"suspend_fleet\": {{\n",
            "    \"sessions\": {sessions},\n",
            "    \"suspend_candidates\": {idle_half},\n",
            "    \"connections\": {conns},\n",
            "    \"shards\": {shards},\n",
            "    \"pump_sessions\": {pump},\n",
            "    \"chunk_samples\": {chunk},\n",
            "    \"idle_timeout_samples\": {timeout},\n",
            "    \"wall_seconds\": {wall_s:.3},\n",
            "    \"requests\": {requests},\n",
            "    \"queue_full_retries\": {qf},\n",
            "    \"transcripts_checked\": {checked},\n",
            "    \"transcript_mismatches\": {mismatches},\n",
            "    \"sessions_suspended\": {suspended},\n",
            "    \"sessions_resumed\": {resumed},\n",
            "    \"sessions_reaped\": {reaped},\n",
            "    \"orphan_commands\": {orphans},\n",
            "    \"store_residual_snapshots\": {residual}\n",
            "  }},\n",
            "  \"checkpoint\": {{\n",
            "    \"iterations\": {iters},\n",
            "    \"snapshot_p50_us\": {sp50:.1},\n",
            "    \"snapshot_p99_us\": {sp99:.1},\n",
            "    \"restore_p50_us\": {rp50:.1},\n",
            "    \"restore_p99_us\": {rp99:.1},\n",
            "    \"bytes_per_session_min\": {bmin},\n",
            "    \"bytes_per_session_mean\": {bmean:.0},\n",
            "    \"bytes_per_session_max\": {bmax}\n",
            "  }}\n",
            "}}\n",
        ),
        sessions = args.sessions,
        conns = args.conns,
        shards = args.shards,
        cpus = env.cpus,
        quota = env.cgroup_cpu_quota_json(),
        par = env.effective_parallelism,
        simd = env.simd_backend,
        features = env
            .simd_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        idle_half = idle_half,
        pump = PUMP_SESSIONS,
        chunk = CHUNK,
        timeout = SUSPEND_IDLE_TIMEOUT,
        wall_s = wall_s,
        requests = requests,
        qf = queue_full_retries,
        checked = checked,
        mismatches = mismatches,
        suspended = m.sessions_suspended,
        resumed = m.sessions_resumed,
        reaped = m.sessions_reaped,
        orphans = m.orphan_commands,
        residual = residual,
        iters = snap_us.len(),
        sp50 = percentile_f64(&snap_us, 0.50),
        sp99 = percentile_f64(&snap_us, 0.99),
        rp50 = percentile_f64(&rest_us, 0.50),
        rp99 = percentile_f64(&rest_us, 0.99),
        bmin = sizes.first().copied().unwrap_or(0),
        bmean = bytes_mean,
        bmax = sizes.last().copied().unwrap_or(0),
    );
    eprintln!(
        "wire_fleet[suspend]: suspended={} resumed={} mismatches={mismatches}/{checked} ok={ok}",
        m.sessions_suspended, m.sessions_resumed
    );
    (json, ok)
}

/// One blocking HTTP GET against the admin plane; returns (status, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<(u16, String), String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: fleet\r\n\r\n").as_bytes())
        .map_err(|e| format!("GET {path}: {e}"))?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| format!("read {path}: {e}"))?;
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{path}: unparseable status line"))?;
    let body = response.split("\r\n\r\n").nth(1).unwrap_or_default().to_string();
    Ok((status, body))
}

/// Hits every admin endpoint against a live fleet and sanity-checks the
/// bodies. Returns an error description on the first failure.
fn check_obs_endpoints(addr: std::net::SocketAddr, sessions: usize) -> Result<(), String> {
    let (status, body) = http_get(addr, "/healthz")?;
    if status != 200 || body != "ok\n" {
        return Err(format!("/healthz: {status} {body:?}"));
    }
    let (status, _) = http_get(addr, "/readyz")?;
    if status != 200 {
        return Err(format!("/readyz: {status} (fleet admission must not be shedding)"));
    }
    let (status, body) = http_get(addr, "/metrics")?;
    if status != 200
        || !body.contains("# TYPE echowrite_serve_pushes_total counter")
        || !body.contains("echowrite_serve_obs_requests_total")
    {
        return Err(format!("/metrics: {status}, exposition incomplete"));
    }
    let (status, body) = http_get(addr, "/sessions")?;
    if status != 200 || !body.starts_with('[') || !body.ends_with(']') {
        return Err(format!("/sessions: {status} {body:?}"));
    }
    // The fleet has finished every session by the time this runs, so the
    // table may be empty — but it must list no more than the fleet drove.
    let rows = body.matches("\"session\":").count();
    if rows > sessions {
        return Err(format!("/sessions: {rows} rows for a {sessions}-session fleet"));
    }
    let (status, body) = http_get(addr, "/flight")?;
    if status != 200 || !body.starts_with("{\"displayTimeUnit\"") {
        return Err(format!("/flight: {status}, not a Chrome trace"));
    }
    Ok(())
}

/// The stitched-trace acceptance phase: a deliberately tiny admission
/// limit forces a shed, the shed latch dumps the flight rings as a
/// Chrome-trace artifact, and every nonzero server-side request id in
/// that artifact must stitch 1:1 against the ids the client assigned.
fn run_obs_stitch_phase() -> bool {
    let dir = std::env::temp_dir().join(format!("ewsn-fleet-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manager = SessionManager::new(
        engine().clone(),
        ServeConfig {
            shards: Parallelism::Threads(1),
            max_sessions: 1,
            high_water: 1,
            flight: FlightOptions { artifact_dir: Some(dir.clone()), ..FlightOptions::default() },
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    let server = WireServer::bind("127.0.0.1:0", manager).expect("loopback bind");
    let obs = ObsServer::bind("127.0.0.1:0", server.manager_handle()).expect("obs bind");
    let addr = server.local_addr();

    let mut trace = ClientTrace::new();
    let mut client = match WireClient::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("wire_fleet[obs]: connect: {e}");
            return false;
        }
    };
    client.set_next_request_id(9_000);
    let audio = &bases()[0].0;
    let mut ts_us = 0u64;
    let mut ok = true;
    // Open + two pushes on the admitted session, then an open that must
    // shed, then one more push so the shard polls the dump trigger.
    let chunk_at = |k: usize| {
        let pos = (k * CHUNK).min(audio.len());
        let end = (pos + CHUNK).min(audio.len());
        audio[pos..end].to_vec()
    };
    let script: Vec<(&str, Request)> = vec![
        ("open", Request::Open { session: 71 }),
        ("push", Request::Push { session: 71, samples: chunk_at(0) }),
        ("push", Request::Push { session: 71, samples: chunk_at(1) }),
        ("open_shed", Request::Open { session: 72 }),
        ("push", Request::Push { session: 71, samples: chunk_at(2) }),
        ("finish", Request::Finish { session: 71 }),
    ];
    for (name, req) in &script {
        let id = client.peek_next_request_id();
        let timer = Stopwatch::start();
        match client.request(req) {
            Ok(Response::Shedding { request_id, .. }) => {
                trace.instant("shed_verdict", request_id, ts_us);
                if *name != "open_shed" {
                    eprintln!("wire_fleet[obs]: unexpected shed on {name}");
                    ok = false;
                }
            }
            Ok(_) => trace.span(name, id, ts_us, (timer.elapsed_ms() * 1_000.0) as u64),
            Err(e) => {
                eprintln!("wire_fleet[obs]: {name}: {e}");
                ok = false;
            }
        }
        ts_us += 1_000;
    }
    // Drain until the admitted session finishes so its spans are in the
    // rings before shutdown.
    while ok {
        match client.next_event() {
            Ok(Response::Finished { .. }) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("wire_fleet[obs]: event stream: {e}");
                ok = false;
            }
        }
    }
    // The shed artifact lands asynchronously (the worker polls between
    // batches); wait for it (bench crate is time-exempt).
    let shed_artifact = |dir: &std::path::Path| -> Option<std::path::PathBuf> {
        std::fs::read_dir(dir).ok()?.flatten().map(|e| e.path()).find(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.contains("-shed-"))
        })
    };
    let mut artifact = None;
    for _ in 0..500 {
        artifact = shed_artifact(&dir);
        if artifact.is_some() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // The admin plane serves the same rings live.
    if let Err(e) = http_get(obs.local_addr(), "/flight")
        .and_then(|(status, body)| match status {
            200 if body.contains("\"req\":") => Ok(()),
            _ => Err(format!("/flight: {status}, no correlation args")),
        })
    {
        eprintln!("wire_fleet[obs]: {e}");
        ok = false;
    }
    obs.shutdown();
    let _ = server.shutdown();

    let Some(artifact) = artifact else {
        eprintln!("wire_fleet[obs]: no shed flight artifact in {}", dir.display());
        let _ = std::fs::remove_dir_all(&dir);
        return false;
    };
    let server_json = std::fs::read_to_string(&artifact).unwrap_or_default();
    let client_json = trace.to_chrome_json();
    let merged = match stitch::stitch_traces(&client_json, &server_json) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("wire_fleet[obs]: stitch: {e}");
            let _ = std::fs::remove_dir_all(&dir);
            return false;
        }
    };
    if merged.matches('{').count() != merged.matches('}').count() {
        eprintln!("wire_fleet[obs]: merged trace is not well-formed");
        ok = false;
    }
    let report = stitch::correlate(&client_json, &server_json);
    if !report.is_one_to_one() {
        eprintln!(
            "wire_fleet[obs]: stitch not 1:1 — {} matched, server-only ids {:?}",
            report.matched, report.server_only
        );
        ok = false;
    }
    eprintln!(
        "wire_fleet[obs]: shed artifact {} stitched {}/{} client ids ok={ok}",
        artifact.file_name().and_then(|n| n.to_str()).unwrap_or("?"),
        report.matched,
        report.client_total
    );
    let _ = std::fs::remove_dir_all(&dir);
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wire_fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    echowrite_bench::print_bench_environment();
    eprintln!(
        "wire_fleet: sessions={} conns={} shards={} smoke={}",
        args.sessions, args.conns, args.shards, args.smoke
    );

    // Render audio + oracles before the clock starts.
    let total_audio_samples: u64 = (0..args.sessions)
        .map(|k| bases()[k % bases().len()].0.len() as u64)
        .sum();
    let sample_rate = engine().config().stft.sample_rate;

    let manager = SessionManager::new(
        engine().clone(),
        ServeConfig {
            shards: Parallelism::Threads(args.shards),
            // Shallow queues keep enqueue→processed latency bounded; the
            // fleet absorbs the extra QueueFull verdicts with backoff.
            queue_capacity: 256,
            max_sessions: args.sessions + 8,
            high_water: args.sessions + 8,
            deadline_chunks: None,
            idle_timeout_samples: None,
            batch_max: 8,
            reap_policy: ReapPolicy::Drop,
            ..ServeConfig::default()
        },
    )
    .expect("valid serve config");
    let server = WireServer::bind("127.0.0.1:0", manager).expect("loopback bind");
    let addr = server.local_addr();
    // The admin plane rides beside the wire listener for the whole run,
    // observing the manager through a weak handle.
    let obs = ObsServer::bind("127.0.0.1:0", server.manager_handle()).expect("obs bind");

    // Partition sessions across connections and replay.
    let wall = Stopwatch::start();
    let reports: Vec<ConnReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..args.conns)
            .map(|c| {
                let ids: Vec<u64> =
                    (0..args.sessions).filter(|k| k % args.conns == c).map(|k| k as u64).collect();
                scope.spawn(move || run_connection(addr, ids))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("connection thread")).collect()
    });
    let wall_s = wall.elapsed_ms() / 1e3;

    // With the fleet complete but the server still live, every admin
    // endpoint must answer.
    let obs_endpoints_ok = match check_obs_endpoints(obs.local_addr(), args.sessions) {
        Ok(()) => true,
        Err(e) => {
            eprintln!("wire_fleet: obs endpoint check: {e}");
            false
        }
    };
    obs.shutdown();

    let report = server.shutdown();
    let m = &report.metrics;

    // Verify every wire transcript bitwise against its in-process oracle.
    let mut mismatches = 0usize;
    let mut checked = 0usize;
    let mut errors = Vec::new();
    let mut rtts: Vec<u64> = Vec::new();
    let mut queue_full_retries = 0u64;
    for r in &reports {
        if let Some(e) = &r.error {
            errors.push(e.clone());
        }
        queue_full_retries += r.queue_full;
        rtts.extend_from_slice(&r.rtts_us);
        for (&id, rows) in &r.transcripts {
            let want = &bases()[(id as usize) % bases().len()].1;
            checked += 1;
            if rows != want {
                mismatches += 1;
                if mismatches <= 3 {
                    eprintln!("wire_fleet: session {id} transcript diverged from in-process oracle");
                }
            }
        }
    }
    rtts.sort_unstable();
    let p50 = percentile(&rtts, 0.50);
    let p99 = percentile(&rtts, 0.99);
    let audio_s = total_audio_samples as f64 / sample_rate;
    let realtime_factor = if wall_s > 0.0 { audio_s / wall_s } else { 0.0 };

    let env = echowrite_bench::bench_environment();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"crates/bench/src/bin/wire_fleet.rs\",\n",
            "  \"command\": \"cargo run --release -p echowrite-bench --bin wire_fleet -- ",
            "--sessions {sessions} --conns {conns} --shards {shards}\",\n",
            "  \"environment\": {{\n",
            "    \"cpus\": {cpus},\n",
            "    \"cgroup_cpu_quota\": {quota},\n",
            "    \"effective_parallelism\": {par},\n",
            "    \"simd_backend\": \"{simd}\",\n",
            "    \"simd_features\": [{features}]\n",
            "  }},\n",
            "  \"fleet\": {{\n",
            "    \"sessions\": {sessions},\n",
            "    \"connections\": {conns},\n",
            "    \"shards\": {shards},\n",
            "    \"chunk_samples\": {chunk},\n",
            "    \"audio_seconds_total\": {audio_s:.3},\n",
            "    \"wall_seconds\": {wall_s:.3},\n",
            "    \"aggregate_realtime_factor\": {rtf:.2},\n",
            "    \"rtt_p50_us\": {p50},\n",
            "    \"rtt_p99_us\": {p99},\n",
            "    \"requests\": {requests},\n",
            "    \"queue_full_retries\": {qf},\n",
            "    \"transcripts_checked\": {checked},\n",
            "    \"transcript_mismatches\": {mismatches}\n",
            "  }},\n",
            "  \"server_metrics\": {{\n",
            "    \"sessions_opened\": {opened},\n",
            "    \"sessions_finished\": {finished},\n",
            "    \"sessions_shed\": {shed},\n",
            "    \"pushes\": {pushes},\n",
            "    \"queue_full\": {queue_full},\n",
            "    \"wire_connections\": {wconns},\n",
            "    \"wire_frames_read\": {wread},\n",
            "    \"wire_frames_written\": {wwritten},\n",
            "    \"wire_malformed_frames\": {wmal},\n",
            "    \"wire_write_stalls\": {wstall},\n",
            "    \"push_latency_p99_us\": {push_p99}\n",
            "  }}\n",
            "}}\n",
        ),
        sessions = args.sessions,
        conns = args.conns,
        shards = args.shards,
        cpus = env.cpus,
        quota = env.cgroup_cpu_quota_json(),
        par = env.effective_parallelism,
        simd = env.simd_backend,
        features = env
            .simd_features
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", "),
        chunk = CHUNK,
        audio_s = audio_s,
        wall_s = wall_s,
        rtf = realtime_factor,
        p50 = p50,
        p99 = p99,
        requests = rtts.len(),
        qf = queue_full_retries,
        checked = checked,
        mismatches = mismatches,
        opened = m.sessions_opened,
        finished = m.sessions_finished,
        shed = m.sessions_shed,
        pushes = m.pushes,
        queue_full = m.queue_full,
        wconns = m.wire_connections,
        wread = m.wire_frames_read,
        wwritten = m.wire_frames_written,
        wmal = m.wire_malformed_frames,
        wstall = m.wire_write_stalls,
        push_p99 = m.push_latency_p99_us.map_or_else(|| "null".to_string(), |v| v.to_string()),
    );
    match &args.json {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("wire_fleet: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wire_fleet: wrote {path}");
        }
        None => print!("{json}"),
    }

    let mut ok = obs_endpoints_ok;
    for e in &errors {
        eprintln!("wire_fleet: connection error: {e}");
        ok = false;
    }
    if mismatches > 0 {
        eprintln!("wire_fleet: {mismatches}/{checked} transcripts diverged");
        ok = false;
    }
    if checked != args.sessions {
        eprintln!("wire_fleet: only {checked}/{} transcripts collected", args.sessions);
        ok = false;
    }
    if m.wire_malformed_frames != 0 {
        eprintln!("wire_fleet: {} malformed frames on a clean fleet", m.wire_malformed_frames);
        ok = false;
    }
    if m.sessions_finished != args.sessions as u64 {
        eprintln!(
            "wire_fleet: {}/{} sessions finished",
            m.sessions_finished, args.sessions
        );
        ok = false;
    }
    eprintln!(
        "wire_fleet: realtime_factor={realtime_factor:.2} rtt_p50_us={p50} rtt_p99_us={p99} \
         queue_full_retries={queue_full_retries} ok={ok}"
    );

    // Observability acceptance: forced shed → flight artifact → stitched
    // 1:1 against the client-assigned request ids.
    ok &= run_obs_stitch_phase();

    // Second pass: the same fleet with suspension enabled (BENCH_snapshot).
    let (snapshot_json, suspend_ok) = run_suspend_phase(&args);
    ok &= suspend_ok;
    match &args.snapshot_json {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &snapshot_json) {
                eprintln!("wire_fleet: writing {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("wire_fleet: wrote {path}");
        }
        None => print!("{snapshot_json}"),
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
