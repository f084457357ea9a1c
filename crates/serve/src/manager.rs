//! The sharded multi-session manager.
//!
//! N worker shards (the [`Parallelism`](echowrite::Parallelism) knob) each
//! own a `SessionId → StreamingSession` map plus pooled scratch, with
//! sessions pinned to shards by id hash — all DSP state stays
//! thread-local, so per-session output is bitwise identical to an
//! isolated [`StreamingRecognizer`](echowrite::StreamingRecognizer) no
//! matter how many shards run or how sessions interleave.
//!
//! Workers drain their queue in batches (up to [`ServeConfig::batch_max`]
//! commands per round), running every push of a batch through one
//! shard-shared DSP scratch so the FFT workspace stays hot across sessions;
//! commands execute strictly in queue order, so the batch size never
//! changes any output bit.
//!
//! Ingress is a bounded MPSC queue per shard and **never blocks**:
//! [`SessionManager::submit`] returns a [`SubmitVerdict`] — enqueued, queue
//! full (with a drain hint), or shed by the admission controller. A push
//! that waits in a backlog past the configured deadline is degraded to
//! segment-only output (the DTW match is skipped, the DSP state still
//! advances) rather than stalling the shard. An idle reaper driven by the
//! shard's logical sample clock reclaims abandoned sessions; no wall clock
//! is read anywhere on the result path.

use crate::admission::AdmissionController;
use crate::config::{ReapPolicy, ServeConfig};
use crate::metrics::ServeMetrics;
use echowrite::{EchoWrite, SegmentEvent, SharedDspScratch, StreamingSession};
use echowrite_profile::Stopwatch;
use echowrite_snapshot::{restore_in_place, snapshot_session, SnapshotStore};
use echowrite_trace::{
    flight_to_chrome_json, EventKind, FlightEntry, FlightRing, SmallStr, Stage, TraceEvent,
    TICK_UNSET,
};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Scan for idle sessions every this many processed commands.
const REAP_SCAN_EVERY: u64 = 64;

/// Identifies one recognition session. Allocation is the caller's business
/// (connection id, user id hash, …); the manager only requires ids of live
/// sessions to be distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct SessionId(pub u64);

/// The manager's answer to a [`SessionManager::submit`] — never a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub enum SubmitVerdict {
    /// Accepted; the shard will process it in submission order.
    Enqueued,
    /// The session's shard queue is full; try again after roughly this
    /// many queued commands have drained.
    QueueFull {
        /// Current depth of the rejecting shard's queue.
        retry_after_chunks: usize,
    },
    /// Rejected by the admission controller (opens past the high-water
    /// mark or the hard session cap), or the manager is shutting down.
    Shedding,
}

/// One unit of work for [`SessionManager::submit`].
#[derive(Debug)]
pub enum Request<'a> {
    /// Start a session (admission-controlled).
    Open(SessionId),
    /// Append an audio chunk to a live session.
    Push(SessionId, &'a [f64]),
    /// End a session, flushing every remaining segment.
    Finish(SessionId),
}

/// An output produced by a shard worker, drained via
/// [`SessionManager::try_events`]. Events of one session arrive in order;
/// events of different sessions interleave arbitrarily (shards run
/// concurrently).
#[derive(Debug, Clone)]
pub enum ServeEvent {
    /// A decided stroke segment. `segment.classification` is `None` when
    /// the producing push was degraded by a missed deadline.
    Segment {
        /// The session that produced the segment.
        session: SessionId,
        /// The segment, in the session's absolute frame clock.
        segment: SegmentEvent,
    },
    /// The session finished (explicit [`Request::Finish`]); all its
    /// segments have been emitted.
    Finished {
        /// The finished session.
        session: SessionId,
    },
    /// The idle reaper reclaimed the session.
    Reaped {
        /// The reaped session.
        session: SessionId,
    },
}

/// A command in flight to a shard worker. `req` is the wire-level
/// correlation id the command was submitted under (0 = untagged), threaded
/// through so push spans and flight-ring entries stitch against
/// client-side traces.
enum Cmd {
    Open { id: u64, req: u64 },
    Push { id: u64, chunk: Vec<f64>, seq: u64, req: u64, timer: Stopwatch },
    Finish { id: u64, req: u64 },
    /// Remove the session and reply with its encoded snapshot (migration).
    Export { id: u64, reply: SyncSender<Option<Vec<u8>>> },
    /// Install an exported snapshot under `id`; replies whether it stuck.
    Import { id: u64, bytes: Vec<u8>, reply: SyncSender<bool> },
    /// Snapshot the shard's live-session table (the obs plane's
    /// `/sessions` endpoint).
    Introspect { reply: SyncSender<Vec<SessionInfo>> },
    /// Snapshot the shard's flight ring, optionally one session's rows.
    FlightDump { session: Option<u64>, reply: SyncSender<Vec<FlightEntry>> },
}

/// Why a flight-recorder dump was triggered (DESIGN.md §6.11). The reason
/// names the artifact, so a postmortem directory reads as an anomaly log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightReason {
    /// The admission controller latched into shedding.
    Shed,
    /// A push missed its backlog deadline and was degraded.
    DeadlineDegradation,
    /// The wire front-end rejected a malformed frame.
    MalformedFrame,
    /// Reap/suspend/thaw churn reached the configured threshold within one
    /// reaper scan window.
    ReapChurn,
    /// The manager is shutting down (final dump).
    Shutdown,
    /// An operator asked for a dump (obs plane or tests).
    Manual,
}

impl FlightReason {
    /// Stable artifact-name slug.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightReason::Shed => "shed",
            FlightReason::DeadlineDegradation => "deadline",
            FlightReason::MalformedFrame => "malformed-frame",
            FlightReason::ReapChurn => "reap-churn",
            FlightReason::Shutdown => "shutdown",
            FlightReason::Manual => "manual",
        }
    }

    fn as_u64(self) -> u64 {
        match self {
            FlightReason::Shed => 0,
            FlightReason::DeadlineDegradation => 1,
            FlightReason::MalformedFrame => 2,
            FlightReason::ReapChurn => 3,
            FlightReason::Shutdown => 4,
            FlightReason::Manual => 5,
        }
    }

    fn from_u64(v: u64) -> FlightReason {
        match v {
            0 => FlightReason::Shed,
            1 => FlightReason::DeadlineDegradation,
            2 => FlightReason::MalformedFrame,
            3 => FlightReason::ReapChurn,
            4 => FlightReason::Shutdown,
            _ => FlightReason::Manual,
        }
    }
}

/// Manager→worker flight-dump trigger: a monotone epoch plus the latest
/// reason. Workers poll the epoch once per drained batch (a single load)
/// and dump their ring when it moved; triggers arriving between polls
/// coalesce into one dump.
#[derive(Debug, Default)]
struct FlightControl {
    epoch: AtomicU64,
    reason: AtomicU64,
}

impl FlightControl {
    fn trigger(&self, reason: FlightReason) {
        // ordering: Relaxed — published by the Release bump below.
        // echolint: allow(atomics-order) -- the epoch fetch_add below is the Release edge; the reason rides it
        self.reason.store(reason.as_u64(), Ordering::Relaxed);
        // ordering: Release pairs with the worker's Acquire epoch load, so
        // a worker that sees the new epoch also sees the reason store.
        self.epoch.fetch_add(1, Ordering::Release);
    }

    fn read(&self) -> (u64, FlightReason) {
        // ordering: Acquire pairs with trigger's Release bump.
        let epoch = self.epoch.load(Ordering::Acquire);
        // ordering: Relaxed — made visible by the Acquire load above.
        (epoch, FlightReason::from_u64(self.reason.load(Ordering::Relaxed)))
    }
}

/// One row of [`SessionManager::introspect`]: a live or suspended session
/// as its owning shard sees it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session id.
    pub session: u64,
    /// The shard the session is pinned to.
    pub shard: usize,
    /// Audio samples pushed since the session was opened or last resumed
    /// on this shard (0 for suspended sessions — their state lives in the
    /// store, not a shard).
    pub samples_in: u64,
    /// Commands queued on the owning shard when the row was snapshotted.
    pub backlog: usize,
    /// Whether the session is suspended in the snapshot store.
    pub suspended: bool,
    /// Shard logical clock (audio-time µs) of the session's last command.
    pub last_active_tick_us: u64,
}

/// Outstanding-command counter backing [`SessionManager::quiesce`] —
/// a condvar, not a sleep loop, so no duration is ever chosen.
#[derive(Debug, Default)]
struct Pending {
    n: Mutex<u64>,
    zero: Condvar,
}

impl Pending {
    fn lock(&self) -> std::sync::MutexGuard<'_, u64> {
        self.n.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn inc(&self) {
        *self.lock() += 1;
    }

    fn dec(&self) {
        let mut g = self.lock();
        *g = g.saturating_sub(1);
        if *g == 0 {
            self.zero.notify_all();
        }
    }

    fn wait_zero(&self) {
        let mut g = self.lock();
        while *g > 0 {
            g = self.zero.wait(g).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Manager-side handle to one shard.
struct ShardHandle {
    tx: Option<SyncSender<Cmd>>,
    depth: Arc<AtomicUsize>,
    /// Pushes enqueued to this shard so far (the deadline clock).
    pushes_enqueued: Arc<AtomicU64>,
    pending: Arc<Pending>,
    join: Option<JoinHandle<()>>,
    /// Audit log of every push seq the shard worker observed, for the
    /// unique-seq regression test (compiled out of release builds).
    #[cfg(test)]
    seq_log: Arc<Mutex<Vec<u64>>>,
}

impl std::fmt::Debug for ShardHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardHandle")
            // ordering: Relaxed — a debug snapshot; nothing is gated on it.
            .field("depth", &self.depth.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// The sharded multi-session recognition service. See the module docs for
/// the architecture; see [`ServeConfig`] for the knobs.
///
/// # Example
///
/// ```
/// use echowrite::{EchoWrite, EchoWriteConfig, Parallelism};
/// use echowrite_serve::{ServeConfig, SessionId, SessionManager, SubmitVerdict};
///
/// let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
/// let cfg = ServeConfig { shards: Parallelism::Threads(2), ..ServeConfig::default() };
/// let manager = SessionManager::new(engine, cfg).expect("valid config");
/// let id = SessionId(7);
/// assert_eq!(manager.open(id), SubmitVerdict::Enqueued);
/// let _ = manager.push(id, &[0.0; 4096]);
/// let _ = manager.finish(id);
/// manager.quiesce();
/// ```
#[derive(Debug)]
pub struct SessionManager {
    shards: Vec<ShardHandle>,
    admission: Arc<AdmissionController>,
    metrics: Arc<ServeMetrics>,
    /// The output side of the event channel; `None` after
    /// [`SessionManager::detach_events`] hands it to an external consumer.
    events: Mutex<Option<Receiver<ServeEvent>>>,
    deadline_chunks: Option<u64>,
    /// Snapshot store shared with every shard worker (suspend/thaw,
    /// export of suspended sessions, shutdown drain).
    store: Option<Arc<dyn SnapshotStore>>,
    /// When set before the workers stop, each worker suspends its
    /// remaining live sessions into the store on exit (crash-recovery
    /// drain; see [`SessionManager::shutdown_to_store`]).
    drain_on_exit: Arc<AtomicBool>,
    /// Flight-dump trigger shared with every shard worker.
    flight_ctl: Arc<FlightControl>,
    /// Edge detector for the shed trigger: set on the first shed, cleared
    /// once admission stops shedding, so a shed storm dumps once.
    shed_latched: AtomicBool,
}

/// The detached output side of a manager's event channel (see
/// [`SessionManager::detach_events`]): a *blocking* event consumer for a
/// dedicated dispatcher thread, e.g. the wire front-end's router. Holds no
/// reference to the manager, so the manager can be shut down while a
/// dispatcher still drains the stream — `recv` returns `None` once every
/// shard worker has exited and the channel is empty.
#[derive(Debug)]
pub struct EventStream {
    rx: Receiver<ServeEvent>,
}

impl EventStream {
    /// Blocks for the next event; `None` means the manager has shut down
    /// and every remaining event has been delivered.
    pub fn recv(&self) -> Option<ServeEvent> {
        self.rx.recv().ok()
    }

    /// Non-blocking variant of [`EventStream::recv`].
    pub fn try_recv(&self) -> Option<ServeEvent> {
        self.rx.try_recv().ok()
    }
}

/// Everything [`SessionManager::shutdown`] hands back: the final metrics
/// snapshot plus every [`ServeEvent`] still sitting undrained in the
/// channel, so a caller that skipped [`SessionManager::try_events`] loses
/// nothing across shutdown.
#[derive(Debug)]
pub struct ShutdownReport {
    /// Final point-in-time copy of every metric.
    pub metrics: crate::metrics::MetricsSnapshot,
    /// Events that were still queued when the manager stopped (empty when
    /// the event receiver was detached — the [`EventStream`] holder owns
    /// the tail in that case).
    pub events: Vec<ServeEvent>,
}

impl SessionManager {
    /// Spawns the shard workers and returns the manager.
    ///
    /// # Errors
    ///
    /// Returns the [`ServeConfig::validate`] message when the
    /// configuration is invalid, including a
    /// [`ReapPolicy::SuspendToStore`] with no store (use
    /// [`SessionManager::with_snapshot_store`]).
    pub fn new(engine: EchoWrite, config: ServeConfig) -> Result<Self, String> {
        Self::build(engine, config, None)
    }

    /// Like [`SessionManager::new`], with a snapshot store shared by every
    /// shard: enables [`ReapPolicy::SuspendToStore`] eviction, transparent
    /// thaw of suspended sessions on their next `Open`/`Push`/`Finish`,
    /// export of suspended sessions, and the
    /// [`SessionManager::shutdown_to_store`] crash-recovery drain. A store
    /// outliving the manager (e.g. an
    /// [`echowrite_snapshot::FileStore`]) carries the suspended sessions
    /// to the next manager built over it.
    ///
    /// # Errors
    ///
    /// Returns the [`ServeConfig::validate`] message when the
    /// configuration is invalid.
    pub fn with_snapshot_store(
        engine: EchoWrite,
        config: ServeConfig,
        store: Arc<dyn SnapshotStore>,
    ) -> Result<Self, String> {
        Self::build(engine, config, Some(store))
    }

    fn build(
        engine: EchoWrite,
        config: ServeConfig,
        store: Option<Arc<dyn SnapshotStore>>,
    ) -> Result<Self, String> {
        config.validate()?;
        engine.config().validate()?;
        if config.reap_policy == ReapPolicy::SuspendToStore && store.is_none() {
            return Err(
                "ReapPolicy::SuspendToStore needs a snapshot store; \
                 construct the manager with with_snapshot_store"
                    .to_string(),
            );
        }
        let engine = Arc::new(engine);
        let admission =
            Arc::new(AdmissionController::new(config.max_sessions, config.high_water));
        let metrics = Arc::new(ServeMetrics::new());
        let (evt_tx, evt_rx) = mpsc::channel();
        let drain_on_exit = Arc::new(AtomicBool::new(false));
        let flight_ctl = Arc::new(FlightControl::default());
        let flight_dir: Option<Arc<PathBuf>> = config.flight.artifact_dir.clone().map(Arc::new);
        let mut shards = Vec::with_capacity(config.shard_count());
        for shard_index in 0..config.shard_count() {
            let (tx, rx) = mpsc::sync_channel(config.queue_capacity);
            let depth = Arc::new(AtomicUsize::new(0));
            let pushes_enqueued = Arc::new(AtomicU64::new(0));
            let pending = Arc::new(Pending::default());
            #[cfg(test)]
            let seq_log = Arc::new(Mutex::new(Vec::new()));
            let worker = Worker {
                engine: engine.clone(),
                rx,
                events: evt_tx.clone(),
                admission: admission.clone(),
                metrics: metrics.clone(),
                depth: depth.clone(),
                pushes_enqueued: pushes_enqueued.clone(),
                pending: pending.clone(),
                deadline_chunks: config.deadline_chunks,
                idle_timeout_samples: config.idle_timeout_samples,
                batch_max: config.batch_max,
                reap_policy: config.reap_policy,
                store: store.clone(),
                drain_on_exit: drain_on_exit.clone(),
                sessions: BTreeMap::new(),
                pool: Vec::new(),
                scratch: Vec::new(),
                dsp_scratch: SharedDspScratch::new(),
                clock_samples: 0,
                commands_done: 0,
                shard_index,
                flight: FlightRing::new(config.flight.capacity),
                flight_ctl: flight_ctl.clone(),
                flight_seen: 0,
                flight_dir: flight_dir.clone(),
                flight_artifacts: 0,
                churn_threshold: config.flight.churn_threshold,
                churn_window: 0,
                was_degraded: false,
                #[cfg(test)]
                seq_log: seq_log.clone(),
            };
            let join = std::thread::spawn(move || worker.run());
            shards.push(ShardHandle {
                tx: Some(tx),
                depth,
                pushes_enqueued,
                pending,
                join: Some(join),
                #[cfg(test)]
                seq_log,
            });
        }
        Ok(SessionManager {
            shards,
            admission,
            metrics,
            events: Mutex::new(Some(evt_rx)),
            deadline_chunks: config.deadline_chunks,
            store,
            drain_on_exit,
            flight_ctl,
            shed_latched: AtomicBool::new(false),
        })
    }

    /// The shard a session is pinned to (Fibonacci hash of the id).
    fn shard_of(&self, id: SessionId) -> usize {
        let h = id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        ((h >> 32) as usize) % self.shards.len().max(1)
    }

    /// Submits one request; never blocks. Opens pass admission control;
    /// pushes and finishes go straight to the session's shard queue.
    pub fn submit(&self, request: Request<'_>) -> SubmitVerdict {
        self.submit_tagged(request, 0)
    }

    /// Like [`SessionManager::submit`], tagging the command with a
    /// wire-level correlation id (0 = untagged). The id flows into the
    /// shard's push spans and flight-ring entries, so server-side traces
    /// stitch 1:1 against the client trace that assigned the id.
    pub fn submit_tagged(&self, request: Request<'_>, request_id: u64) -> SubmitVerdict {
        match request {
            Request::Open(id) => {
                if !self.admission.try_admit() {
                    self.metrics.sessions_shed.inc();
                    self.note_shed();
                    if echowrite_trace::enabled() {
                        echowrite_trace::instant(
                            Stage::Serve,
                            "session_shed",
                            TICK_UNSET,
                            SmallStr::from_display(id.0),
                        );
                    }
                    return SubmitVerdict::Shedding;
                }
                if !self.admission.is_shedding() {
                    // ordering: Relaxed — edge bookkeeping only; a stale
                    // read at worst delays the next shed dump by one open.
                    // echolint: allow(atomics-order) -- gates no data; the latch only dedups dump triggers
                    self.shed_latched.store(false, Ordering::Relaxed);
                }
                let verdict = self.enqueue(id, Cmd::Open { id: id.0, req: request_id });
                if verdict != SubmitVerdict::Enqueued {
                    // The slot reserved above was never used.
                    self.admission.release();
                }
                if verdict == SubmitVerdict::Enqueued {
                    self.metrics.sessions_live.inc();
                }
                verdict
            }
            Request::Push(id, chunk) => {
                let shard = self.shard_of(id);
                // Reserve the seq *before* the send (mirroring the `depth`
                // accounting in `enqueue`): a load-then-increment here would
                // let two concurrent submitters observe the same counter
                // value and stamp duplicate seqs, skewing the backlog `lag`
                // the deadline policy degrades on.
                // ordering: AcqRel — the reservation is both the publish
                // (a later submitter's reservation sees it) and the acquire
                // edge the worker's lag load pairs with.
                let seq = match self.shards.get(shard) {
                    Some(s) => s.pushes_enqueued.fetch_add(1, Ordering::AcqRel),
                    None => 0,
                };
                let cmd = Cmd::Push {
                    id: id.0,
                    chunk: chunk.to_vec(),
                    seq,
                    req: request_id,
                    timer: Stopwatch::start(),
                };
                let verdict = self.enqueue(id, cmd);
                if verdict != SubmitVerdict::Enqueued {
                    // The reservation was never enqueued; return it so the
                    // backlog clock does not drift on rejected submissions.
                    // ordering: AcqRel — pairs with the reservation above.
                    if let Some(s) = self.shards.get(shard) {
                        s.pushes_enqueued.fetch_sub(1, Ordering::AcqRel);
                    }
                }
                verdict
            }
            Request::Finish(id) => self.enqueue(id, Cmd::Finish { id: id.0, req: request_id }),
        }
    }

    /// First shed after a clean period latches and triggers a flight dump;
    /// the latch clears once admission stops shedding, so a shed storm
    /// produces one postmortem, not thousands.
    fn note_shed(&self) {
        // ordering: AcqRel on success orders the trigger after the latch
        // edge; Acquire on failure just observes an already-set latch.
        if self
            .shed_latched
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.trigger_flight_dump(FlightReason::Shed);
        }
    }

    /// Asks every shard worker to dump its flight ring at its next drain
    /// (DESIGN.md §6.11). Used by the serve layer's own anomaly triggers,
    /// the wire front-end (malformed frames), and the obs plane.
    pub fn trigger_flight_dump(&self, reason: FlightReason) {
        self.flight_ctl.trigger(reason);
    }

    /// [`Request::Open`] shorthand.
    pub fn open(&self, id: SessionId) -> SubmitVerdict {
        self.submit(Request::Open(id))
    }

    /// [`Request::Push`] shorthand.
    // echolint: entry
    pub fn push(&self, id: SessionId, chunk: &[f64]) -> SubmitVerdict {
        self.submit(Request::Push(id, chunk))
    }

    /// [`Request::Finish`] shorthand.
    pub fn finish(&self, id: SessionId) -> SubmitVerdict {
        self.submit(Request::Finish(id))
    }

    /// Removes the session from its shard and returns its encoded
    /// snapshot, for migration to another shard, process, or manager.
    /// Also exports a session currently *suspended* in the snapshot store.
    /// Returns `None` when the id is unknown (or the manager is shutting
    /// down). Blocks until the owning shard reaches the command in queue
    /// order, so the bytes reflect every previously enqueued push.
    pub fn export_session(&self, id: SessionId) -> Option<Vec<u8>> {
        let (reply, rx) = mpsc::sync_channel(1);
        if self.enqueue(id, Cmd::Export { id: id.0, reply }) != SubmitVerdict::Enqueued {
            return None;
        }
        rx.recv().ok().flatten()
    }

    /// Installs an exported session snapshot under `id` (on this manager's
    /// shard for the id — the engine configurations must match, which the
    /// snapshot's config fingerprint enforces). Admission-controlled like
    /// an open. Returns `false` when the id is already live, admission
    /// sheds it, or the bytes fail to decode/restore. Blocks until the
    /// owning shard processes the command.
    pub fn import_session(&self, id: SessionId, bytes: Vec<u8>) -> bool {
        let (reply, rx) = mpsc::sync_channel(1);
        if self.enqueue(id, Cmd::Import { id: id.0, bytes, reply }) != SubmitVerdict::Enqueued {
            return false;
        }
        rx.recv().unwrap_or(false)
    }

    fn enqueue(&self, id: SessionId, cmd: Cmd) -> SubmitVerdict {
        let Some(shard) = self.shards.get(self.shard_of(id)) else {
            return SubmitVerdict::Shedding;
        };
        let Some(tx) = shard.tx.as_ref() else {
            return SubmitVerdict::Shedding;
        };
        // Count before sending so the worker can never observe a drain
        // below zero; undo on rejection.
        shard.pending.inc();
        // ordering: AcqRel keeps the depth add/sub pairs totally ordered with
        // the worker's drain decrement, and the Acquire load below reports a
        // retry hint no older than this rejected send.
        shard.depth.fetch_add(1, Ordering::AcqRel);
        self.metrics.queue_depth.inc();
        match tx.try_send(cmd) {
            Ok(()) => SubmitVerdict::Enqueued,
            Err(err) => {
                shard.pending.dec();
                shard.depth.fetch_sub(1, Ordering::AcqRel);
                self.metrics.queue_depth.dec();
                match err {
                    TrySendError::Full(_) => {
                        self.metrics.queue_full.inc();
                        if echowrite_trace::enabled() {
                            echowrite_trace::instant(
                                Stage::Serve,
                                "queue_full",
                                TICK_UNSET,
                                SmallStr::from_display(id.0),
                            );
                        }
                        SubmitVerdict::QueueFull {
                            retry_after_chunks: shard.depth.load(Ordering::Acquire).max(1),
                        }
                    }
                    TrySendError::Disconnected(_) => SubmitVerdict::Shedding,
                }
            }
        }
    }

    /// Enqueues an admin command on a specific shard, mirroring
    /// [`SessionManager::enqueue`]'s depth/pending accounting. Returns
    /// `false` when the queue is full or closed — admin scans skip a
    /// saturated shard instead of blocking ingress behind it.
    fn enqueue_on(&self, shard: &ShardHandle, cmd: Cmd) -> bool {
        let Some(tx) = shard.tx.as_ref() else {
            return false;
        };
        shard.pending.inc();
        // ordering: AcqRel — the same pairing as `enqueue`, so the worker's
        // drain decrement never observes a depth below zero.
        shard.depth.fetch_add(1, Ordering::AcqRel);
        self.metrics.queue_depth.inc();
        if tx.try_send(cmd).is_ok() {
            return true;
        }
        shard.pending.dec();
        shard.depth.fetch_sub(1, Ordering::AcqRel);
        self.metrics.queue_depth.dec();
        false
    }

    /// A point-in-time table of every session the manager knows: live
    /// sessions as their owning shards see them, plus sessions suspended
    /// in the snapshot store. Rows come back ordered by session id.
    /// Best-effort: a shard whose queue is full at scan time is skipped
    /// rather than blocked on, so the admin plane never adds backpressure.
    pub fn introspect(&self) -> Vec<SessionInfo> {
        let mut rxs = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, rx) = mpsc::sync_channel(1);
            if self.enqueue_on(shard, Cmd::Introspect { reply }) {
                rxs.push(rx);
            }
        }
        let mut out: Vec<SessionInfo> = Vec::new();
        for rx in rxs {
            if let Ok(rows) = rx.recv() {
                out.extend(rows);
            }
        }
        if let Some(store) = self.store.as_ref() {
            if let Ok(ids) = store.sessions() {
                for id in ids {
                    out.push(SessionInfo {
                        session: id,
                        shard: self.shard_of(SessionId(id)),
                        samples_in: 0,
                        backlog: 0,
                        suspended: true,
                        last_active_tick_us: 0,
                    });
                }
            }
        }
        // Live beats suspended when a session raced a thaw mid-scan.
        out.sort_by_key(|row| (row.session, row.suspended));
        out.dedup_by_key(|row| row.session);
        out
    }

    /// Merges every shard's flight-ring snapshot, optionally filtered to
    /// one session, ordered by logical tick. The rings are always on, so
    /// this works with tracing disabled and needs no restart.
    pub fn flight_snapshot(&self, session: Option<u64>) -> Vec<FlightEntry> {
        let mut rxs = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            let (reply, rx) = mpsc::sync_channel(1);
            if self.enqueue_on(shard, Cmd::FlightDump { session, reply }) {
                rxs.push(rx);
            }
        }
        let mut out: Vec<FlightEntry> = Vec::new();
        for rx in rxs {
            if let Ok(entries) = rx.recv() {
                out.extend(entries);
            }
        }
        out.sort_by_key(|e| e.event.tick_us);
        out
    }

    /// Blocks until every enqueued command has been processed (a condvar
    /// handshake — submissions arriving concurrently extend the wait).
    pub fn quiesce(&self) {
        for shard in &self.shards {
            shard.pending.wait_zero();
        }
    }

    /// Drains every currently available output event into `out`, returning
    /// how many were appended. Never blocks. Returns 0 after
    /// [`SessionManager::detach_events`] (the stream owner gets them).
    pub fn try_events(&self, out: &mut Vec<ServeEvent>) -> usize {
        let guard = self.events.lock().unwrap_or_else(|e| e.into_inner());
        let Some(rx) = guard.as_ref() else {
            return 0;
        };
        let before = out.len();
        while let Ok(ev) = rx.try_recv() {
            out.push(ev);
        }
        out.len() - before
    }

    /// Moves the event receiver out of the manager, for a dedicated
    /// dispatcher thread that wants *blocking* receives (e.g. the wire
    /// front-end's event router). After this, [`SessionManager::try_events`]
    /// always returns 0 and [`SessionManager::shutdown`] reports no
    /// residual events — the stream owner is responsible for the tail.
    /// Returns `None` if the stream was already detached.
    pub fn detach_events(&self) -> Option<EventStream> {
        let mut guard = self.events.lock().unwrap_or_else(|e| e.into_inner());
        guard.take().map(|rx| EventStream { rx })
    }

    /// The manager's metric registry.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// Sessions currently live across all shards.
    pub fn live_sessions(&self) -> usize {
        self.admission.live()
    }

    /// Whether the admission controller is currently shedding new opens.
    pub fn is_shedding(&self) -> bool {
        self.admission.is_shedding()
    }

    /// The configured backlog deadline, if any.
    pub fn deadline_chunks(&self) -> Option<u64> {
        self.deadline_chunks
    }

    /// The snapshot store this manager was built over (see
    /// [`SessionManager::with_snapshot_store`]), e.g. to enumerate
    /// suspended sessions. `None` for a storeless manager.
    pub fn snapshot_store(&self) -> Option<&Arc<dyn SnapshotStore>> {
        self.store.as_ref()
    }

    /// Drains the queues, stops every shard worker, and returns the final
    /// metrics snapshot together with every event still undrained in the
    /// channel. Workers send a command's events *before* acknowledging it
    /// to [`SessionManager::quiesce`], so after the quiesce every event of
    /// every processed command is in the channel — draining here means a
    /// caller that never polled [`SessionManager::try_events`] still loses
    /// no `Segment`/`Finished` across shutdown.
    pub fn shutdown(self) -> ShutdownReport {
        self.quiesce();
        let metrics = Arc::clone(&self.metrics);
        let rx = self.events.lock().unwrap_or_else(|e| e.into_inner()).take();
        // Dropping joins the workers, so events they emit while exiting
        // (none today, but the drain path reserves the right) and their
        // final metric updates are visible below.
        drop(self);
        let mut events = Vec::new();
        if let Some(rx) = rx {
            while let Ok(ev) = rx.try_recv() {
                events.push(ev);
            }
        }
        ShutdownReport { metrics: metrics.snapshot(), events }
    }

    /// Crash-recovery variant of [`SessionManager::shutdown`]: every
    /// session still live when the workers stop is suspended into the
    /// snapshot store (counted in `sessions_suspended`), so a fresh
    /// manager built over the same store with
    /// [`SessionManager::with_snapshot_store`] thaws them transparently on
    /// their next command and clients resume mid-word, bitwise. Without a
    /// store this is exactly [`SessionManager::shutdown`].
    pub fn shutdown_to_store(self) -> ShutdownReport {
        // ordering: Release pairs with the worker's Acquire load on exit;
        // the quiesce/join inside shutdown() sequences everything else.
        self.drain_on_exit.store(true, Ordering::Release);
        self.shutdown()
    }
}

impl Drop for SessionManager {
    fn drop(&mut self) {
        // Closing the senders ends each worker's recv loop; then join.
        for shard in &mut self.shards {
            shard.tx = None;
        }
        for shard in &mut self.shards {
            if let Some(join) = shard.join.take() {
                let _ = join.join();
            }
        }
    }
}

/// One live session owned by a shard.
struct Slot {
    session: StreamingSession,
    /// Shard logical-clock stamp (samples processed) of the last command.
    last_active: u64,
    /// Samples pushed since this slot went live (open, thaw, or import).
    samples_in: u64,
}

/// A shard worker's whole state; `run` consumes it on its own thread.
struct Worker {
    engine: Arc<EchoWrite>,
    rx: Receiver<Cmd>,
    events: Sender<ServeEvent>,
    admission: Arc<AdmissionController>,
    metrics: Arc<ServeMetrics>,
    depth: Arc<AtomicUsize>,
    pushes_enqueued: Arc<AtomicU64>,
    pending: Arc<Pending>,
    deadline_chunks: Option<u64>,
    idle_timeout_samples: Option<u64>,
    /// Commands drained from the queue per batch round (1 = no batching).
    batch_max: usize,
    /// Reaper disposition: drop reclaimed sessions or suspend them.
    reap_policy: ReapPolicy,
    /// Snapshot store for suspend/thaw/export; shared across shards.
    store: Option<Arc<dyn SnapshotStore>>,
    /// Set by [`SessionManager::shutdown_to_store`]: suspend every
    /// remaining live session into the store when the queue closes.
    drain_on_exit: Arc<AtomicBool>,
    /// Live sessions pinned to this shard (ordered map: deterministic
    /// iteration for the reaper).
    sessions: BTreeMap<u64, Slot>,
    /// Finished/reaped session state kept for reuse — the arena that makes
    /// open/close cheap (a reset touches counters, not allocations).
    pool: Vec<StreamingSession>,
    /// Per-shard scratch for segment events.
    scratch: Vec<SegmentEvent>,
    /// Shard-shared DSP workspace: every push of a batch runs its STFT
    /// frames through this one arena, keeping the windowed-frame, FFT, and
    /// spectrum buffers hot across sessions.
    dsp_scratch: SharedDspScratch,
    /// Logical clock: total samples this shard has processed.
    clock_samples: u64,
    commands_done: u64,
    /// This worker's shard number, for artifact names and introspection.
    shard_index: usize,
    /// Always-on flight recorder: a bounded ring of recent events owned
    /// outright by this worker — recording is a plain array store, no
    /// atomics, no locks, independent of the global trace gate.
    flight: FlightRing,
    /// Manager-side dump trigger (shed latch, malformed frames, manual).
    flight_ctl: Arc<FlightControl>,
    /// Last trigger epoch this worker acted on.
    flight_seen: u64,
    /// Where anomaly dumps go; `None` keeps the ring in-memory only.
    flight_dir: Option<Arc<PathBuf>>,
    /// Per-worker dump ordinal, for unique artifact names.
    flight_artifacts: u64,
    /// Reap/suspend/thaw events per scan window that count as churn
    /// (0 disables the churn trigger).
    churn_threshold: u64,
    /// Reap/suspend/thaw events since the last reaper scan.
    churn_window: u64,
    /// Previous push's degraded flag, so the deadline trigger fires on the
    /// rising edge instead of once per degraded push.
    was_degraded: bool,
    /// Mirror of [`ShardHandle::seq_log`] for the unique-seq regression
    /// test.
    #[cfg(test)]
    seq_log: Arc<Mutex<Vec<u64>>>,
}

impl Worker {
    /// Trace timestamp: the shard's logical sample clock, in audio-time µs.
    fn tick_us(&self) -> u64 {
        echowrite_trace::samples_to_us(self.clock_samples, self.engine.config().stft.sample_rate)
    }

    // echolint: entry
    fn run(mut self) {
        // Batched drain: block for the first command, then greedily pull up
        // to `batch_max − 1` more that are already queued. Commands execute
        // strictly in queue order with per-command accounting, so batching
        // changes cache behaviour (one shared DSP scratch pass over N
        // sessions' pushes) but never the output or the quiesce contract.
        let mut batch: Vec<Cmd> = Vec::with_capacity(self.batch_max);
        while let Ok(first) = self.rx.recv() {
            batch.push(first);
            while batch.len() < self.batch_max {
                match self.rx.try_recv() {
                    Ok(cmd) => batch.push(cmd),
                    Err(_) => break,
                }
            }
            self.metrics.batch_drains.inc();
            for cmd in batch.drain(..) {
                // ordering: AcqRel pairs with the manager's enqueue increment, so the
                // observed depth never dips below zero mid-handoff.
                self.depth.fetch_sub(1, Ordering::AcqRel);
                self.metrics.queue_depth.dec();
                match cmd {
                    Cmd::Open { id, req } => self.handle_open(id, req),
                    Cmd::Push { id, chunk, seq, req, timer } => {
                        self.handle_push(id, &chunk, seq, req, timer);
                    }
                    Cmd::Finish { id, req } => self.handle_finish(id, req),
                    Cmd::Export { id, reply } => self.handle_export(id, &reply),
                    Cmd::Import { id, bytes, reply } => self.handle_import(id, &bytes, &reply),
                    Cmd::Introspect { reply } => self.handle_introspect(&reply),
                    Cmd::FlightDump { session, reply } => {
                        self.handle_flight_dump(session, &reply);
                    }
                }
                self.commands_done += 1;
                if self.commands_done.is_multiple_of(REAP_SCAN_EVERY) {
                    self.reap_idle();
                }
                self.pending.dec();
            }
            self.check_flight();
        }
        // Crash-recovery drain: the queue closed with the drain flag set,
        // so suspend every remaining live session into the store — a fresh
        // manager over the same store thaws them on their next command.
        // ordering: Acquire pairs with shutdown_to_store's Release store.
        if self.drain_on_exit.load(Ordering::Acquire) && self.store.is_some() {
            let ids: Vec<u64> = self.sessions.keys().copied().collect();
            for id in ids {
                self.suspend_session(id);
            }
        }
        // Final postmortem: shutdown always leaves a flight artifact when
        // a dump directory is configured.
        self.dump_flight(FlightReason::Shutdown);
    }

    /// Records one event into the always-on flight ring. Runs regardless
    /// of the global trace gate — the ring is the postmortem of last
    /// resort, and a single array store fits the 5 % per-push budget.
    fn record_flight(
        &mut self,
        session: u64,
        req: u64,
        name: &'static str,
        kind: EventKind,
        wall_us: u64,
        value: f64,
    ) {
        let event = TraceEvent {
            stage: Stage::Serve,
            name,
            kind,
            tick_us: self.tick_us(),
            wall_us,
            value,
            detail: SmallStr::empty(),
        };
        self.flight.record(session, req, event);
    }

    /// Polls the manager-side trigger; dumps when the epoch moved.
    fn check_flight(&mut self) {
        let (epoch, reason) = self.flight_ctl.read();
        if epoch != self.flight_seen {
            self.flight_seen = epoch;
            self.dump_flight(reason);
        }
    }

    /// Writes the ring as a Chrome-trace artifact
    /// `flight-<uptime_ms>ms-<reason>-shard<k>-<n>.json` into the
    /// configured directory. The name uses the metrics registry's
    /// quarantined uptime clock — no new wall-clock read — plus a
    /// per-worker ordinal for uniqueness. No directory, no artifact (the
    /// ring still serves live snapshots through
    /// [`SessionManager::flight_snapshot`]).
    fn dump_flight(&mut self, reason: FlightReason) {
        let Some(dir) = self.flight_dir.as_ref() else {
            return;
        };
        let uptime_ms = (self.metrics.uptime_seconds() * 1_000.0) as u64;
        let name = format!(
            "flight-{uptime_ms}ms-{}-shard{}-{}.json",
            reason.as_str(),
            self.shard_index,
            self.flight_artifacts
        );
        self.flight_artifacts += 1;
        let json = flight_to_chrome_json(&self.flight.snapshot());
        if std::fs::create_dir_all(dir.as_ref()).is_ok()
            && std::fs::write(dir.join(name), json).is_ok()
        {
            self.metrics.flight_dumps.inc();
        }
    }

    /// [`Cmd::Introspect`]: the live-session table as this shard sees it.
    fn handle_introspect(&self, reply: &SyncSender<Vec<SessionInfo>>) {
        // ordering: Relaxed — a monitoring snapshot; nothing branches on it.
        let backlog = self.depth.load(Ordering::Relaxed);
        let sample_rate = self.engine.config().stft.sample_rate;
        let rows = self
            .sessions
            .iter()
            .map(|(&id, slot)| SessionInfo {
                session: id,
                shard: self.shard_index,
                samples_in: slot.samples_in,
                backlog,
                suspended: false,
                last_active_tick_us: echowrite_trace::samples_to_us(slot.last_active, sample_rate),
            })
            .collect();
        let _ = reply.send(rows);
    }

    /// [`Cmd::FlightDump`]: a copy of the ring, optionally one session's.
    fn handle_flight_dump(&self, session: Option<u64>, reply: &SyncSender<Vec<FlightEntry>>) {
        let mut entries = self.flight.snapshot();
        if let Some(id) = session {
            entries.retain(|e| e.session == id);
        }
        let _ = reply.send(entries);
    }

    /// Tries to resurrect a suspended session from the snapshot store.
    ///
    /// `admit` is true on the `Push`/`Finish` path, where no admission slot
    /// is reserved yet; the `Open` path passes false because
    /// [`SessionManager::submit`] already admitted the id. Returns whether
    /// the session is now live. On a decode/restore failure the bytes are
    /// discarded (they cannot become a session under this engine) and the
    /// caller falls through to its unknown-id behaviour.
    fn thaw(&mut self, id: u64, admit: bool) -> bool {
        let Some(store) = self.store.as_ref() else {
            return false;
        };
        let Ok(Some(bytes)) = store.remove(id) else {
            return false;
        };
        if admit && !self.admission.try_admit() {
            // Shed exactly like an over-water open; park the bytes back so
            // the session can still thaw once the population drains.
            let _ = store.put(id, bytes);
            self.metrics.sessions_shed.inc();
            return false;
        }
        let mut session = match self.pool.pop() {
            Some(mut s) => {
                s.reset(&self.engine);
                s
            }
            None => StreamingSession::new(&self.engine),
        };
        match restore_in_place(&mut session, &bytes, &self.engine) {
            Ok(()) => {
                self.sessions.insert(
                    id,
                    Slot { session, last_active: self.clock_samples, samples_in: 0 },
                );
                if admit {
                    self.metrics.sessions_live.inc();
                }
                self.metrics.sessions_resumed.inc();
                self.churn_window += 1;
                self.record_flight(id, 0, "session_resume", EventKind::Instant, 0, 0.0);
                if echowrite_trace::enabled() {
                    echowrite_trace::instant(
                        Stage::Snapshot,
                        "session_resume",
                        self.tick_us(),
                        SmallStr::from_display(id),
                    );
                }
                true
            }
            Err(_) => {
                // After a failed restore the session is unspecified: reset
                // before returning it to the pool.
                session.reset(&self.engine);
                self.pool.push(session);
                if admit {
                    self.admission.release();
                }
                false
            }
        }
    }

    /// Suspends one live session into the snapshot store (reaper eviction
    /// and the shutdown drain). Falls back to a plain reap when the store
    /// write fails — the session is then gone, exactly as under
    /// [`ReapPolicy::Drop`], and the `Reaped` event says so.
    fn suspend_session(&mut self, id: u64) {
        let Some(mut slot) = self.sessions.remove(&id) else {
            return;
        };
        let Some(store) = self.store.as_ref() else {
            // No store: behave as a plain reap (callers gate on the store,
            // so this is a defensive arm, not a reachable policy).
            self.pool.push(slot.session);
            let _ = self.events.send(ServeEvent::Reaped { session: SessionId(id) });
            self.admission.release();
            self.metrics.sessions_reaped.inc();
            self.metrics.sessions_live.dec();
            self.churn_window += 1;
            return;
        };
        let bytes = snapshot_session(&slot.session, &self.engine);
        let stored = store.put(id, bytes).is_ok();
        slot.session.reset(&self.engine);
        self.pool.push(slot.session);
        self.admission.release();
        self.metrics.sessions_live.dec();
        self.churn_window += 1;
        self.record_flight(
            id,
            0,
            if stored { "session_suspend" } else { "session_reaped" },
            EventKind::Instant,
            0,
            0.0,
        );
        if stored {
            self.metrics.sessions_suspended.inc();
            if echowrite_trace::enabled() {
                echowrite_trace::instant(
                    Stage::Snapshot,
                    "session_suspend",
                    self.tick_us(),
                    SmallStr::from_display(id),
                );
            }
        } else {
            let _ = self.events.send(ServeEvent::Reaped { session: SessionId(id) });
            self.metrics.suspend_store_errors.inc();
            self.metrics.sessions_reaped.inc();
            if echowrite_trace::enabled() {
                echowrite_trace::instant(
                    Stage::Serve,
                    "session_reaped",
                    self.tick_us(),
                    SmallStr::from_display(id),
                );
            }
        }
    }

    /// [`Cmd::Export`]: hand the session's snapshot to the caller and
    /// forget it — live sessions are serialized and released, suspended
    /// ones are pulled straight out of the store.
    fn handle_export(&mut self, id: u64, reply: &SyncSender<Option<Vec<u8>>>) {
        let out = if let Some(mut slot) = self.sessions.remove(&id) {
            let bytes = snapshot_session(&slot.session, &self.engine);
            slot.session.reset(&self.engine);
            self.pool.push(slot.session);
            self.admission.release();
            self.metrics.sessions_live.dec();
            self.metrics.sessions_suspended.inc();
            if echowrite_trace::enabled() {
                echowrite_trace::instant(
                    Stage::Snapshot,
                    "session_export",
                    self.tick_us(),
                    SmallStr::from_display(id),
                );
            }
            Some(bytes)
        } else if let Some(bytes) =
            self.store.as_ref().and_then(|s| s.remove(id).ok().flatten())
        {
            // Already suspended: its live-count bookkeeping happened at
            // suspend time, so the bytes just change owners.
            Some(bytes)
        } else {
            self.metrics.orphan_commands.inc();
            None
        };
        let _ = reply.send(out);
    }

    /// [`Cmd::Import`]: install an exported snapshot as a live session,
    /// admission-controlled like an open.
    fn handle_import(&mut self, id: u64, bytes: &[u8], reply: &SyncSender<bool>) {
        if self.sessions.contains_key(&id) {
            let _ = reply.send(false);
            return;
        }
        if !self.admission.try_admit() {
            self.metrics.sessions_shed.inc();
            let _ = reply.send(false);
            return;
        }
        let mut session = match self.pool.pop() {
            Some(mut s) => {
                s.reset(&self.engine);
                s
            }
            None => StreamingSession::new(&self.engine),
        };
        let ok = match restore_in_place(&mut session, bytes, &self.engine) {
            Ok(()) => {
                self.sessions.insert(
                    id,
                    Slot { session, last_active: self.clock_samples, samples_in: 0 },
                );
                self.metrics.sessions_live.inc();
                self.metrics.sessions_resumed.inc();
                self.record_flight(id, 0, "session_import", EventKind::Instant, 0, 0.0);
                if echowrite_trace::enabled() {
                    echowrite_trace::instant(
                        Stage::Snapshot,
                        "session_import",
                        self.tick_us(),
                        SmallStr::from_display(id),
                    );
                }
                true
            }
            Err(_) => {
                session.reset(&self.engine);
                self.pool.push(session);
                self.admission.release();
                false
            }
        };
        let _ = reply.send(ok);
    }

    fn handle_open(&mut self, id: u64, req: u64) {
        if let Some(slot) = self.sessions.get_mut(&id) {
            // Re-open of a live id is idempotent: a wire client retrying an
            // `Open` whose ack was lost must not destroy its own in-flight
            // state (the old `reset()` here wiped the session). Touch the
            // idle clock, keep every buffer, and return the duplicate
            // admission slot reserved by submit().
            slot.last_active = self.clock_samples;
            self.admission.release();
            self.metrics.sessions_live.dec();
            self.metrics.sessions_reopened.inc();
            self.record_flight(id, req, "session_reopen", EventKind::Instant, 0, 0.0);
            if echowrite_trace::enabled() {
                echowrite_trace::instant(
                    Stage::Serve,
                    "session_reopen",
                    self.tick_us(),
                    SmallStr::from_display(id),
                );
            }
            return;
        }
        // A suspended session thaws on re-open instead of starting over;
        // submit() already reserved this open's admission slot.
        if self.thaw(id, false) {
            return;
        }
        let session = match self.pool.pop() {
            Some(mut s) => {
                s.reset(&self.engine);
                s
            }
            None => StreamingSession::new(&self.engine),
        };
        self.sessions
            .insert(id, Slot { session, last_active: self.clock_samples, samples_in: 0 });
        self.metrics.sessions_opened.inc();
        self.record_flight(id, req, "session_open", EventKind::Instant, 0, 0.0);
        if echowrite_trace::enabled() {
            echowrite_trace::instant(
                Stage::Serve,
                "session_open",
                self.tick_us(),
                SmallStr::from_display(id),
            );
        }
    }

    fn handle_push(&mut self, id: u64, chunk: &[f64], seq: u64, req: u64, timer: Stopwatch) {
        #[cfg(test)]
        self.seq_log.lock().unwrap_or_else(|e| e.into_inner()).push(seq);
        // A push racing the reaper: under SuspendToStore the session was
        // parked, not destroyed — thaw it and the push lands as if the
        // reap never happened.
        if !self.sessions.contains_key(&id) && !self.thaw(id, true) {
            self.metrics.orphan_commands.inc();
            return;
        }
        let Some(slot) = self.sessions.get_mut(&id) else {
            self.metrics.orphan_commands.inc();
            return;
        };
        // Backlog lag: pushes enqueued to this shard after this one was.
        // ordering: Acquire pairs with the manager's AcqRel enqueue counter,
        // so lag counts every push enqueued before this command was sent.
        let lag = self
            .pushes_enqueued
            .load(Ordering::Acquire)
            .saturating_sub(seq.saturating_add(1));
        let degraded = self.deadline_chunks.is_some_and(|d| lag > d);
        self.scratch.clear();
        slot.session.push_events_shared(
            &self.engine,
            chunk,
            !degraded,
            &mut self.dsp_scratch,
            &mut self.scratch,
        );
        self.clock_samples += chunk.len() as u64;
        slot.last_active = self.clock_samples;
        slot.samples_in += chunk.len() as u64;
        self.metrics.pushes.inc();
        if degraded {
            self.metrics.pushes_degraded.inc();
        }
        self.metrics.events.add(self.scratch.len() as u64);
        let emitted = self.scratch.len();
        for segment in self.scratch.drain(..) {
            let _ = self.events.send(ServeEvent::Segment { session: SessionId(id), segment });
        }
        let wall_us = (timer.elapsed_ms() * 1_000.0) as u64;
        self.metrics.push_latency_us.observe(wall_us);
        let span_name = if degraded { "push_degraded" } else { "push" };
        self.record_flight(id, req, span_name, EventKind::Span, wall_us, emitted as f64);
        if degraded && !self.was_degraded {
            // Rising edge of deadline degradation: dump the recent context
            // that led into the backlog, once per degradation episode.
            self.dump_flight(FlightReason::DeadlineDegradation);
        }
        self.was_degraded = degraded;
        if echowrite_trace::enabled() {
            // Span over the push's whole queue+process latency, tagged with
            // the wire correlation id so it stitches against the client
            // trace; the lag counter exposes the backlog behind degraded
            // decisions.
            echowrite_trace::span_detailed(
                Stage::Serve,
                span_name,
                self.tick_us(),
                wall_us,
                emitted as f64,
                if req == 0 {
                    SmallStr::empty()
                } else {
                    SmallStr::from_display(format_args!("req {req}"))
                },
            );
            echowrite_trace::counter(Stage::Serve, "backlog_chunks", self.tick_us(), lag as f64);
        }
    }

    fn handle_finish(&mut self, id: u64, req: u64) {
        // Like the push path: a finish for a suspended session thaws it
        // first so the tail segments flush instead of being orphaned.
        if !self.sessions.contains_key(&id) && !self.thaw(id, true) {
            self.metrics.orphan_commands.inc();
            return;
        }
        let Some(mut slot) = self.sessions.remove(&id) else {
            self.metrics.orphan_commands.inc();
            return;
        };
        self.scratch.clear();
        slot.session.finish_events(&self.engine, true, &mut self.scratch);
        self.metrics.events.add(self.scratch.len() as u64);
        for segment in self.scratch.drain(..) {
            let _ = self.events.send(ServeEvent::Segment { session: SessionId(id), segment });
        }
        let _ = self.events.send(ServeEvent::Finished { session: SessionId(id) });
        self.pool.push(slot.session);
        self.admission.release();
        self.metrics.sessions_finished.inc();
        self.metrics.sessions_live.dec();
        self.record_flight(id, req, "session_finish", EventKind::Instant, 0, 0.0);
        if echowrite_trace::enabled() {
            echowrite_trace::instant(
                Stage::Serve,
                "session_finish",
                self.tick_us(),
                SmallStr::from_display(id),
            );
        }
    }

    /// Reclaims sessions whose last command is older than the idle
    /// timeout on this shard's sample clock.
    fn reap_idle(&mut self) {
        let Some(timeout) = self.idle_timeout_samples else {
            return;
        };
        let clock = self.clock_samples;
        let stale: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, slot)| clock.saturating_sub(slot.last_active) > timeout)
            .map(|(&id, _)| id)
            .collect();
        let suspend = self.reap_policy == ReapPolicy::SuspendToStore && self.store.is_some();
        for id in stale {
            if suspend {
                self.suspend_session(id);
                continue;
            }
            if let Some(slot) = self.sessions.remove(&id) {
                self.pool.push(slot.session);
                let _ = self.events.send(ServeEvent::Reaped { session: SessionId(id) });
                self.admission.release();
                self.metrics.sessions_reaped.inc();
                self.metrics.sessions_live.dec();
                self.churn_window += 1;
                self.record_flight(id, 0, "session_reaped", EventKind::Instant, 0, 0.0);
                if echowrite_trace::enabled() {
                    echowrite_trace::instant(
                        Stage::Serve,
                        "session_reaped",
                        self.tick_us(),
                        SmallStr::from_display(id),
                    );
                }
            }
        }
        if self.churn_threshold > 0 && self.churn_window >= self.churn_threshold {
            // Reap/thaw churn: sessions are thrashing in and out of the
            // store faster than the threshold allows — dump the context.
            self.dump_flight(FlightReason::ReapChurn);
        }
        self.churn_window = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use echowrite::{EchoWriteConfig, Parallelism};

    fn manager(cfg: ServeConfig) -> SessionManager {
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        SessionManager::new(engine, cfg).expect("valid test config")
    }

    #[test]
    fn rejects_invalid_config() {
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        let bad = ServeConfig { shards: Parallelism::Threads(0), ..ServeConfig::default() };
        assert!(SessionManager::new(engine, bad).is_err());
    }

    #[test]
    fn open_push_finish_round_trip() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(2),
            ..ServeConfig::default()
        });
        let id = SessionId(42);
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        assert_eq!(m.push(id, &vec![0.0; 44_100]), SubmitVerdict::Enqueued);
        assert_eq!(m.finish(id), SubmitVerdict::Enqueued);
        m.quiesce();
        let mut events = Vec::new();
        m.try_events(&mut events);
        assert!(
            matches!(events.last(), Some(ServeEvent::Finished { session }) if *session == id),
            "expected Finished, got {events:?}"
        );
        let snap = m.shutdown().metrics;
        assert_eq!(snap.sessions_opened, 1);
        assert_eq!(snap.sessions_finished, 1);
        assert_eq!(snap.sessions_live, 0);
        assert_eq!(snap.pushes, 1);
        assert_eq!(snap.push_latency_count, 1);
    }

    #[test]
    fn admission_sheds_past_high_water() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            max_sessions: 4,
            high_water: 2,
            ..ServeConfig::default()
        });
        assert_eq!(m.open(SessionId(1)), SubmitVerdict::Enqueued);
        assert_eq!(m.open(SessionId(2)), SubmitVerdict::Enqueued);
        assert_eq!(m.open(SessionId(3)), SubmitVerdict::Shedding);
        assert!(m.is_shedding());
        m.quiesce();
        assert_eq!(m.finish(SessionId(1)), SubmitVerdict::Enqueued);
        m.quiesce();
        // Hysteresis: low water for high_water=2 is 1, and 1 ≤ 1 clears it.
        assert_eq!(m.open(SessionId(3)), SubmitVerdict::Enqueued);
        assert_eq!(m.metrics().sessions_shed.get(), 1);
    }

    #[test]
    fn full_queue_returns_queue_full_not_block() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        let id = SessionId(5);
        let _ = m.open(id);
        // Saturate the queue with a burst; at least one verdict must be
        // QueueFull (the worker cannot drain a 0.5 s chunk instantly).
        let chunk = vec![0.0; 22_050];
        let mut saw_full = false;
        for _ in 0..64 {
            match m.push(id, &chunk) {
                SubmitVerdict::QueueFull { retry_after_chunks } => {
                    assert!(retry_after_chunks >= 1);
                    saw_full = true;
                    break;
                }
                SubmitVerdict::Enqueued => {}
                SubmitVerdict::Shedding => panic!("push must not shed"),
            }
        }
        assert!(saw_full, "a capacity-2 queue must report QueueFull under a burst");
        assert!(m.metrics().queue_full.get() >= 1);
        m.quiesce();
    }

    #[test]
    fn orphan_commands_are_counted_not_fatal() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            ..ServeConfig::default()
        });
        let _ = m.push(SessionId(99), &[0.0; 1024]);
        let _ = m.finish(SessionId(99));
        m.quiesce();
        assert_eq!(m.metrics().orphan_commands.get(), 2);
    }

    #[test]
    fn idle_reaper_reclaims_abandoned_sessions() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            idle_timeout_samples: Some(10_000),
            ..ServeConfig::default()
        });
        let idle = SessionId(1);
        let busy = SessionId(2);
        let _ = m.open(idle);
        let _ = m.open(busy);
        let _ = m.push(idle, &[0.0; 1024]);
        // Push enough traffic through `busy` to trip a reap scan and age
        // `idle` past the timeout on the shard's sample clock.
        for _ in 0..(REAP_SCAN_EVERY + 8) {
            let _ = m.push(busy, &[0.0; 1024]);
            m.quiesce();
        }
        let mut events = Vec::new();
        m.try_events(&mut events);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ServeEvent::Reaped { session } if *session == idle)),
            "idle session must be reaped; events: {events:?}"
        );
        assert_eq!(m.metrics().sessions_reaped.get(), 1);
        assert_eq!(m.live_sessions(), 1, "busy session must survive");
    }

    #[test]
    fn reopen_of_live_id_is_idempotent() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            ..ServeConfig::default()
        });
        let id = SessionId(8);
        let _ = m.open(id);
        let _ = m.push(id, &[0.0; 4096]);
        let _ = m.open(id); // duplicate open: a retry, not a restart
        m.quiesce();
        assert_eq!(m.live_sessions(), 1, "re-open must not leak an admission slot");
        assert_eq!(m.metrics().sessions_reopened.get(), 1);
        assert_eq!(m.metrics().sessions_opened.get(), 1, "a re-open is not a fresh open");
        let _ = m.finish(id);
        m.quiesce();
        assert_eq!(m.live_sessions(), 0);
    }

    /// Satellite regression (duplicate-`Open` semantics): a client that
    /// retries an `Open` after losing the ack must keep its in-flight
    /// recognition state — the transcript after `push → re-open → push →
    /// finish` must equal one continuous session's, bitwise.
    #[test]
    fn reopen_after_lost_ack_keeps_inflight_state() {
        use echowrite::StreamingRecognizer;
        // A deterministic non-silent signal long enough to freeze the
        // background and segment at least the session lead-in state.
        let audio: Vec<f64> = (0..6 * 4096)
            .map(|i| (f64::from(i as u32) * 0.013).sin() * 0.02)
            .collect();
        let (a, b) = audio.split_at(audio.len() / 2);

        // Oracle: one continuous recognizer over both halves.
        let engine = EchoWrite::with_config(EchoWriteConfig::streaming());
        let mut rec = StreamingRecognizer::new(&engine);
        let mut oracle: Vec<(usize, usize)> = Vec::new();
        for ev in rec.push(a) {
            oracle.push((ev.start_frame, ev.end_frame));
        }
        for ev in rec.push(b) {
            oracle.push((ev.start_frame, ev.end_frame));
        }
        for ev in rec.finish() {
            oracle.push((ev.start_frame, ev.end_frame));
        }

        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            ..ServeConfig::default()
        });
        let id = SessionId(3);
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        assert_eq!(m.push(id, a), SubmitVerdict::Enqueued);
        // The ack was "lost": the client re-opens, then resumes pushing.
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        assert_eq!(m.push(id, b), SubmitVerdict::Enqueued);
        assert_eq!(m.finish(id), SubmitVerdict::Enqueued);
        m.quiesce();
        let mut events = Vec::new();
        m.try_events(&mut events);
        let got: Vec<(usize, usize)> = events
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Segment { segment, .. } => {
                    Some((segment.start_frame, segment.end_frame))
                }
                _ => None,
            })
            .collect();
        assert_eq!(got, oracle, "re-open wiped in-flight session state");
        assert_eq!(m.metrics().sessions_reopened.get(), 1);
    }

    /// Satellite regression (push `seq` race): submitters racing on one
    /// shard must never stamp two pushes with the same sequence number —
    /// a load-then-increment let both read the counter before either
    /// published, skewing the backlog lag the deadline policy degrades on.
    #[test]
    fn concurrent_pushes_reserve_unique_seqs_per_shard() {
        const THREADS: usize = 8;
        const PER_THREAD: usize = 64;
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            // Deep enough that no push is rejected: the undo path is not
            // under test here, uniqueness of accepted reservations is.
            queue_capacity: THREADS * PER_THREAD + 8,
            ..ServeConfig::default()
        });
        let id = SessionId(1);
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        m.quiesce();
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..PER_THREAD {
                        assert_eq!(m.push(id, &[0.0; 16]), SubmitVerdict::Enqueued);
                    }
                });
            }
        });
        m.quiesce();
        let mut seqs: Vec<u64> =
            m.shards[0].seq_log.lock().unwrap_or_else(|e| e.into_inner()).clone();
        seqs.sort_unstable();
        let want: Vec<u64> = (0..(THREADS * PER_THREAD) as u64).collect();
        assert_eq!(seqs, want, "duplicate or skipped push seqs on the shard");
    }

    /// Satellite regression (lossless shutdown): a caller that finishes a
    /// session and never polls `try_events` must still receive every
    /// `Segment` and `Finished` event from `shutdown()`.
    #[test]
    fn shutdown_returns_undrained_events() {
        let audio: Vec<f64> = (0..6 * 4096)
            .map(|i| (f64::from(i as u32) * 0.013).sin() * 0.02)
            .collect();
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(2),
            ..ServeConfig::default()
        });
        let id = SessionId(11);
        assert_eq!(m.open(id), SubmitVerdict::Enqueued);
        assert_eq!(m.push(id, &audio), SubmitVerdict::Enqueued);
        assert_eq!(m.finish(id), SubmitVerdict::Enqueued);
        // Deliberately no try_events: everything must survive shutdown.
        let report = m.shutdown();
        assert!(
            report
                .events
                .iter()
                .any(|e| matches!(e, ServeEvent::Finished { session } if *session == id)),
            "Finished event lost across shutdown: {:?}",
            report.events
        );
        let emitted = report
            .events
            .iter()
            .filter(|e| matches!(e, ServeEvent::Segment { .. }))
            .count() as u64;
        assert_eq!(
            emitted, report.metrics.events,
            "every counted segment event must be returned by shutdown"
        );
    }

    /// `detach_events` hands the tail to the stream owner: `try_events`
    /// goes quiet, the blocking stream sees every event, and it
    /// disconnects (returns `None`) once the manager is gone.
    #[test]
    fn detached_event_stream_outlives_the_manager() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            ..ServeConfig::default()
        });
        let stream = m.detach_events().expect("first detach succeeds");
        assert!(m.detach_events().is_none(), "second detach must fail");
        let id = SessionId(2);
        let _ = m.open(id);
        let _ = m.push(id, &[0.0; 4096]);
        let _ = m.finish(id);
        m.quiesce();
        let mut drained = Vec::new();
        assert_eq!(m.try_events(&mut drained), 0, "detached manager yields no events");
        let report = m.shutdown();
        assert!(report.events.is_empty(), "detached manager reports no residual events");
        // The stream still delivers the whole tail, then disconnects.
        let mut finished = false;
        while let Some(ev) = stream.recv() {
            if matches!(ev, ServeEvent::Finished { session } if session == id) {
                finished = true;
            }
        }
        assert!(finished, "detached stream must deliver the Finished event");
    }

    // ---- suspend/resume (echowrite-snapshot integration) ----

    use echowrite::StreamingRecognizer;
    use echowrite_gesture::{Stroke, Writer, WriterParams};
    use echowrite_snapshot::MemoryStore;
    use echowrite_synth::{DeviceProfile, EnvironmentProfile, Scene};

    /// A transcript row, DTW score bits included.
    type Row = (usize, usize, Stroke, [f64; 6], [f64; 6]);

    /// The cheap down-converted engine the wire tests also serve with.
    fn snap_engine() -> EchoWrite {
        EchoWrite::with_config(echowrite::EchoWriteConfig::streaming_downsampled(32))
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

    /// Oracle: one uninterrupted recognizer over `parts` in order.
    fn oracle_rows(engine: &EchoWrite, parts: &[&[f64]]) -> Vec<Row> {
        let mut rec = StreamingRecognizer::new(engine);
        let mut rows = Vec::new();
        for part in parts {
            for ev in rec.push(part) {
                rows.push((
                    ev.start_frame,
                    ev.end_frame,
                    ev.classification.stroke,
                    ev.classification.distances,
                    ev.classification.scores,
                ));
            }
        }
        for ev in rec.finish() {
            rows.push((
                ev.start_frame,
                ev.end_frame,
                ev.classification.stroke,
                ev.classification.distances,
                ev.classification.scores,
            ));
        }
        rows
    }

    fn rows_of(events: &[ServeEvent], id: SessionId) -> Vec<Row> {
        events
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Segment { session, segment } if *session == id => {
                    let c = segment.classification.as_ref().expect("classified segment");
                    Some((segment.start_frame, segment.end_frame, c.stroke, c.distances, c.scores))
                }
                _ => None,
            })
            .collect()
    }

    /// Ages `idle` past the reap timeout by pushing silence through `busy`
    /// on the same (single) shard until the reaper has scanned.
    fn age_past_reap(m: &SessionManager, busy: SessionId) {
        for _ in 0..(REAP_SCAN_EVERY + 8) {
            assert_eq!(m.push(busy, &[0.0; 1024]), SubmitVerdict::Enqueued);
            m.quiesce();
        }
    }

    /// Satellite regression (reaper/late-push race, `Drop` policy): a push
    /// that loses the race against the reaper lands on a dead id and must
    /// be counted as an orphan, not crash or resurrect state.
    #[test]
    fn drop_policy_counts_late_push_as_orphan() {
        let m = manager(ServeConfig {
            shards: Parallelism::Threads(1),
            idle_timeout_samples: Some(10_000),
            ..ServeConfig::default()
        });
        let idle = SessionId(1);
        let busy = SessionId(2);
        let _ = m.open(idle);
        let _ = m.open(busy);
        let _ = m.push(idle, &[0.0; 1024]);
        age_past_reap(&m, busy);
        assert_eq!(m.metrics().sessions_reaped.get(), 1);
        // The late push arrives after the reap: orphaned under Drop.
        let _ = m.push(idle, &[0.0; 1024]);
        m.quiesce();
        assert_eq!(m.metrics().orphan_commands.get(), 1);
        assert_eq!(m.metrics().sessions_resumed.get(), 0);
    }

    /// Tentpole: under `SuspendToStore` the same race thaws the session
    /// instead — zero orphans, and the resumed transcript is bitwise
    /// identical (frames, stroke, DTW distance and score bits) to a
    /// session that was never suspended.
    #[test]
    fn suspend_policy_thaws_late_push_bitwise() {
        let engine = snap_engine();
        let audio = render(&[Stroke::S2, Stroke::S5], 11, 1.2);
        let (a, b) = audio.split_at(audio.len() / 2);
        let oracle = oracle_rows(&engine, &[a, b]);
        assert!(!oracle.is_empty(), "test audio must produce segments");

        let store = Arc::new(MemoryStore::new());
        let m = SessionManager::with_snapshot_store(
            engine,
            ServeConfig {
                shards: Parallelism::Threads(1),
                idle_timeout_samples: Some(10_000),
                reap_policy: ReapPolicy::SuspendToStore,
                ..ServeConfig::default()
            },
            store.clone(),
        )
        .expect("valid suspend config");
        let id = SessionId(1);
        let busy = SessionId(2);
        let _ = m.open(id);
        let _ = m.open(busy);
        assert_eq!(m.push(id, a), SubmitVerdict::Enqueued);
        age_past_reap(&m, busy);
        m.quiesce();
        assert_eq!(m.metrics().sessions_suspended.get(), 1, "idle session must suspend");
        assert!(store.contains(id.0).expect("store read"), "snapshot parked in the store");
        assert_eq!(m.metrics().sessions_reaped.get(), 0, "suspend is not a reap");
        // The late push thaws the session transparently.
        assert_eq!(m.push(id, b), SubmitVerdict::Enqueued);
        assert_eq!(m.finish(id), SubmitVerdict::Enqueued);
        m.quiesce();
        let mut events = Vec::new();
        m.try_events(&mut events);
        assert_eq!(rows_of(&events, id), oracle, "resumed transcript must be bitwise");
        assert_eq!(m.metrics().orphan_commands.get(), 0);
        assert_eq!(m.metrics().sessions_resumed.get(), 1);
        assert!(!store.contains(id.0).expect("store read"), "thaw consumes the snapshot");
        let _ = m.finish(busy);
        m.quiesce();
        assert_eq!(m.live_sessions(), 0, "admission accounting balanced across suspend/thaw");
    }

    /// A store whose writes always fail (a full disk, say).
    #[derive(Debug)]
    struct FailingStore;

    impl SnapshotStore for FailingStore {
        fn put(&self, _: u64, _: Vec<u8>) -> Result<(), echowrite_snapshot::StoreError> {
            Err(echowrite_snapshot::StoreError::Io(std::io::Error::other("disk full")))
        }
        fn remove(&self, _: u64) -> Result<Option<Vec<u8>>, echowrite_snapshot::StoreError> {
            Ok(None)
        }
        fn contains(&self, _: u64) -> Result<bool, echowrite_snapshot::StoreError> {
            Ok(false)
        }
        fn sessions(&self) -> Result<Vec<u64>, echowrite_snapshot::StoreError> {
            Ok(Vec::new())
        }
    }

    /// A suspend whose store write fails reaps the session — the client
    /// gets `Reaped` — and is counted as a store error, not a suspend.
    #[test]
    fn failed_suspend_counts_store_error_and_reaps() {
        let m = SessionManager::with_snapshot_store(
            snap_engine(),
            ServeConfig {
                shards: Parallelism::Threads(1),
                idle_timeout_samples: Some(10_000),
                reap_policy: ReapPolicy::SuspendToStore,
                ..ServeConfig::default()
            },
            Arc::new(FailingStore),
        )
        .expect("valid suspend config");
        let (idle, busy) = (SessionId(1), SessionId(2));
        let _ = m.open(idle);
        let _ = m.open(busy);
        assert_eq!(m.push(idle, &[0.0; 1024]), SubmitVerdict::Enqueued);
        age_past_reap(&m, busy);
        let mut events = Vec::new();
        m.try_events(&mut events);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ServeEvent::Reaped { session } if *session == idle)),
            "the client must hear Reaped; events: {events:?}"
        );
        let snap = m.metrics().snapshot();
        assert_eq!(snap.suspend_store_errors, 1);
        assert_eq!(snap.sessions_suspended, 0);
        assert_eq!(snap.sessions_reaped, 1);
        let text = m.metrics().to_prometheus();
        assert!(text.contains("echowrite_serve_suspend_store_errors_total 1"), "{text}");
        let _ = m.finish(busy);
        m.quiesce();
    }

    /// Tentpole: `export_session`/`import_session` migrate a mid-word
    /// session across managers (processes, in production) bitwise.
    #[test]
    fn export_import_migrates_mid_word_bitwise() {
        let audio = render(&[Stroke::S3, Stroke::S6], 31, 1.0);
        let (a, b) = audio.split_at(audio.len() / 2);
        let oracle = oracle_rows(&snap_engine(), &[a, b]);
        assert!(!oracle.is_empty(), "test audio must produce segments");

        let cfg = ServeConfig { shards: Parallelism::Threads(2), ..ServeConfig::default() };
        let src = SessionManager::new(snap_engine(), cfg.clone()).expect("src manager");
        let id = SessionId(77);
        let _ = src.open(id);
        assert_eq!(src.push(id, a), SubmitVerdict::Enqueued);
        let bytes = src.export_session(id).expect("live session exports");
        assert_eq!(src.live_sessions(), 0, "export releases the session");
        assert!(src.export_session(id).is_none(), "second export finds nothing");
        let mut events = Vec::new();
        src.try_events(&mut events);
        let head = rows_of(&events, id);
        drop(src.shutdown());

        let dst = SessionManager::new(snap_engine(), cfg).expect("dst manager");
        assert!(!dst.import_session(id, b"garbage".to_vec()), "garbage must not import");
        assert!(dst.import_session(id, bytes.clone()), "exported bytes import");
        assert!(!dst.import_session(id, bytes), "double import of a live id refused");
        assert_eq!(dst.push(id, b), SubmitVerdict::Enqueued);
        assert_eq!(dst.finish(id), SubmitVerdict::Enqueued);
        dst.quiesce();
        let mut tail_events = Vec::new();
        dst.try_events(&mut tail_events);
        let mut got = head;
        got.extend(rows_of(&tail_events, id));
        assert_eq!(got, oracle, "migrated transcript must be bitwise");
        assert_eq!(dst.live_sessions(), 0);
    }

    /// Tentpole: `shutdown_to_store` drains live sessions into the store;
    /// a fresh manager over the same store thaws them on the next push and
    /// the client finishes its word bitwise.
    #[test]
    fn shutdown_to_store_survives_manager_restart() {
        let audio = render(&[Stroke::S1, Stroke::S2], 47, 1.1);
        let (a, b) = audio.split_at(audio.len() / 2);
        let oracle = oracle_rows(&snap_engine(), &[a, b]);
        assert!(!oracle.is_empty(), "test audio must produce segments");

        let store = Arc::new(MemoryStore::new());
        let cfg = ServeConfig { shards: Parallelism::Threads(2), ..ServeConfig::default() };
        let id = SessionId(9);
        let first =
            SessionManager::with_snapshot_store(snap_engine(), cfg.clone(), store.clone())
                .expect("first manager");
        let _ = first.open(id);
        assert_eq!(first.push(id, a), SubmitVerdict::Enqueued);
        first.quiesce();
        let mut events = Vec::new();
        first.try_events(&mut events);
        let head = rows_of(&events, id);
        let report = first.shutdown_to_store();
        assert_eq!(report.metrics.sessions_suspended, 1, "drain suspends the live session");
        assert_eq!(store.sessions().expect("store list"), vec![id.0]);

        let second = SessionManager::with_snapshot_store(snap_engine(), cfg, store.clone())
            .expect("second manager");
        // No re-open: the bare push must thaw the drained session.
        assert_eq!(second.push(id, b), SubmitVerdict::Enqueued);
        assert_eq!(second.finish(id), SubmitVerdict::Enqueued);
        second.quiesce();
        let mut tail_events = Vec::new();
        second.try_events(&mut tail_events);
        let mut got = head;
        got.extend(rows_of(&tail_events, id));
        assert_eq!(got, oracle, "restart transcript must be bitwise");
        assert_eq!(second.metrics().sessions_resumed.get(), 1);
        assert_eq!(second.metrics().orphan_commands.get(), 0);
        assert_eq!(second.live_sessions(), 0);
    }

    /// `SuspendToStore` without a store is a construction error, not a
    /// silent fallback.
    #[test]
    fn suspend_policy_requires_a_store() {
        let cfg =
            ServeConfig { reap_policy: ReapPolicy::SuspendToStore, ..ServeConfig::default() };
        assert!(SessionManager::new(snap_engine(), cfg).is_err());
    }
}
