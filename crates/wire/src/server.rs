//! Thread-per-connection TCP server over a [`SessionManager`].
//!
//! Threads (all plain `std::thread`, no runtime):
//!
//! - **accept** — blocks on [`TcpListener::accept`], spawns a
//!   reader/writer pair per connection.
//! - **reader** (per connection) — reads raw bytes into a
//!   [`FrameDecoder`], submits each decoded request to the shared
//!   manager, and forwards the [`SubmitVerdict`] to the connection's
//!   writer — so verdicts leave the socket in request order.
//! - **writer** (per connection) — drains a bounded response channel and
//!   writes encoded frames to the socket. The bounded channel is the
//!   backpressure boundary: a slow socket fills it, producers fall back
//!   from `try_send` to a blocking send, and every such fallback counts
//!   as a write stall.
//! - **router** — owns the manager's detached [`EventStream`] and routes
//!   `Segment`/`Finished`/`Reaped` events to whichever connection opened
//!   the session (last opener wins on cross-connection id reuse). The
//!   router deliberately holds **no** reference to the manager, so
//!   [`WireServer::shutdown`] can reclaim sole ownership and shut the
//!   manager down — which disconnects the event stream and ends the
//!   router.
//!
//! A malformed byte stream (bad length, unknown kind, grammar mismatch)
//! closes its connection: a desynced length-prefixed stream cannot be
//! re-synchronized, so the server never guesses.

use crate::frame::{FrameDecoder, Request as WireRequest, Response};
use echowrite_profile::Stopwatch;
use echowrite_serve::{
    EventStream, FlightReason, Request, ServeMetrics, SessionId, SessionManager, ShutdownReport,
};
use echowrite_trace::{SmallStr, Stage, TICK_UNSET};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// Response frames buffered per connection before producers stall.
const WRITE_QUEUE: usize = 256;
/// Socket read buffer size.
const READ_BUF: usize = 64 * 1024;

/// State shared between the accept loop, connections, the router, and
/// shutdown.
struct Shared {
    /// session id → (conn id, response channel) of the connection that
    /// opened it.
    registry: Mutex<BTreeMap<u64, (u64, SyncSender<Response>)>>,
    /// conn id → socket handle, kept so shutdown can unblock readers.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    /// Reader/writer join handles, drained at shutdown.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// Set once; readers and the accept loop exit when they observe it.
    shutting_down: AtomicBool,
    /// Stalls hit by the router (it has no manager reference, so they are
    /// folded into the wire metrics at shutdown).
    router_stalls: AtomicU64,
    /// Events the router dropped because no connection owned the session
    /// (its opener already disconnected).
    router_orphans: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Sends a response to a connection's writer, falling back from
/// `try_send` to a blocking send when the bounded queue is full. Returns
/// `false` when the writer is gone (connection closed).
fn send_counted(tx: &SyncSender<Response>, resp: Response, stall: impl FnOnce()) -> bool {
    match tx.try_send(resp) {
        Ok(()) => true,
        Err(TrySendError::Disconnected(_)) => false,
        Err(TrySendError::Full(resp)) => {
            stall();
            tx.send(resp).is_ok()
        }
    }
}

/// A TCP front-end over one [`SessionManager`], serving the frame grammar
/// of [`crate::frame`] on a loopback or LAN socket with only `std::net`.
pub struct WireServer {
    addr: SocketAddr,
    manager: Arc<SessionManager>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    router: Option<JoinHandle<()>>,
}

impl WireServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral loopback port)
    /// and starts serving `manager`.
    ///
    /// # Errors
    ///
    /// Socket bind failures, and a manager whose event stream was already
    /// detached (the server must own event routing).
    pub fn bind(addr: &str, manager: SessionManager) -> std::io::Result<WireServer> {
        let Some(events) = manager.detach_events() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "manager event stream already detached",
            ));
        };
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let manager = Arc::new(manager);
        let shared = Arc::new(Shared {
            registry: Mutex::new(BTreeMap::new()),
            conns: Mutex::new(BTreeMap::new()),
            handles: Mutex::new(Vec::new()),
            shutting_down: AtomicBool::new(false),
            router_stalls: AtomicU64::new(0),
            router_orphans: AtomicU64::new(0),
        });

        let router = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || route_events(events, &shared))
        };
        let accept = {
            let shared = Arc::clone(&shared);
            let manager = Arc::clone(&manager);
            std::thread::spawn(move || accept_loop(&listener, &manager, &shared))
        };
        Ok(WireServer { addr, manager, shared, accept: Some(accept), router: Some(router) })
    }

    /// The bound socket address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying manager's metrics (includes the `wire_*` counters).
    pub fn metrics(&self) -> &ServeMetrics {
        self.manager.metrics()
    }

    /// A weak handle to the underlying manager, for side-car planes such
    /// as `echowrite-obs` that must observe the manager without keeping it
    /// alive — [`WireServer::shutdown`] reclaims sole ownership via
    /// `Arc::try_unwrap`, which a strong clone would defeat.
    pub fn manager_handle(&self) -> std::sync::Weak<SessionManager> {
        Arc::downgrade(&self.manager)
    }

    /// Stops accepting, closes every connection, shuts the manager down,
    /// and returns its [`ShutdownReport`]. Idempotent with respect to
    /// clients: connections in flight observe a closed socket.
    pub fn shutdown(mut self) -> ShutdownReport {
        // ordering: Release pairs with the Acquire loads in the accept and
        // reader loops — a thread that observes the flag also observes any
        // state written before shutdown began.
        self.shared.shutting_down.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection; it checks
        // the flag before serving what it accepted.
        if let Ok(stream) = TcpStream::connect(self.addr) {
            drop(stream);
        }
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        // Kick every live connection off its blocking read.
        for (_, stream) in lock(&self.shared.conns).iter() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        loop {
            let Some(h) = lock(&self.shared.handles).pop() else { break };
            let _ = h.join();
        }
        // ordering: Relaxed — independent statistics folded in after every
        // producer thread has been joined.
        self.manager
            .metrics()
            .wire_write_stalls
            .add(self.shared.router_stalls.load(Ordering::Relaxed));

        // Every reader/writer has dropped its Arc and the router never had
        // one, so this is the sole remaining handle.
        let report = match Arc::try_unwrap(self.manager) {
            Ok(manager) => manager.shutdown(),
            // Unreachable after the joins above; return an empty report
            // rather than panicking in a shutdown path.
            Err(still_shared) => ShutdownReport {
                metrics: still_shared.metrics().snapshot(),
                events: Vec::new(),
            },
        };
        // Manager shutdown dropped the event senders, so the router's
        // stream has disconnected and the router has exited.
        if let Some(h) = self.router.take() {
            let _ = h.join();
        }
        report
    }
}

// echolint: entry
fn accept_loop(listener: &TcpListener, manager: &Arc<SessionManager>, shared: &Arc<Shared>) {
    let mut next_conn: u64 = 0;
    loop {
        let Ok((stream, _)) = listener.accept() else {
            // ordering: Acquire pairs with the Release store in shutdown.
            if shared.shutting_down.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        // ordering: Acquire pairs with the Release store in shutdown.
        if shared.shutting_down.load(Ordering::Acquire) {
            drop(stream);
            return;
        }
        let conn_id = next_conn;
        next_conn += 1;
        manager.metrics().wire_connections.inc();
        if echowrite_trace::enabled() {
            echowrite_trace::instant(
                Stage::Wire,
                "conn_accept",
                TICK_UNSET,
                SmallStr::from_display(conn_id),
            );
        }
        // Event and ack frames are small: without TCP_NODELAY each one can
        // wait on Nagle's algorithm and the peer's delayed ACK.
        if stream.set_nodelay(true).is_err() {
            continue;
        }
        let Ok(write_half) = stream.try_clone() else {
            continue;
        };
        lock(&shared.conns).insert(conn_id, write_half);
        let (tx, rx) = sync_channel::<Response>(WRITE_QUEUE);
        let writer = {
            let manager = Arc::clone(manager);
            let Ok(write_stream) = stream.try_clone() else {
                lock(&shared.conns).remove(&conn_id);
                continue;
            };
            std::thread::spawn(move || write_loop(write_stream, &rx, &manager))
        };
        let reader = {
            let manager = Arc::clone(manager);
            let shared = Arc::clone(shared);
            std::thread::spawn(move || {
                read_loop(stream, conn_id, &tx, &manager, &shared);
                drop(tx); // disconnects the writer once the registry is clean
                lock(&shared.conns).remove(&conn_id);
            })
        };
        let mut handles = lock(&shared.handles);
        handles.push(writer);
        handles.push(reader);
    }
}

/// The per-connection read half: socket bytes → frames → manager
/// submissions → verdict frames back through `tx`.
// echolint: entry
fn read_loop(
    mut stream: TcpStream,
    conn_id: u64,
    tx: &SyncSender<Response>,
    manager: &Arc<SessionManager>,
    shared: &Arc<Shared>,
) {
    let metrics = manager.metrics();
    let mut decoder = FrameDecoder::new();
    let mut buf = vec![0u8; READ_BUF];
    // Sessions this connection opened, for registry cleanup at close.
    let mut owned: BTreeSet<u64> = BTreeSet::new();
    'conn: loop {
        let timer = Stopwatch::start();
        let n = match stream.read(&mut buf) {
            Ok(0) | Err(_) => break 'conn,
            Ok(n) => n,
        };
        // ordering: Acquire pairs with the Release store in shutdown.
        if shared.shutting_down.load(Ordering::Acquire) {
            break 'conn;
        }
        let Some(bytes) = buf.get(..n) else { break 'conn };
        decoder.extend(bytes);
        if echowrite_trace::enabled() {
            echowrite_trace::span(
                Stage::Wire,
                "conn_read",
                TICK_UNSET,
                (timer.elapsed_ms() * 1_000.0) as u64,
                n as f64,
            );
        }
        loop {
            let decode_timer = Stopwatch::start();
            let (request_id, req) = match decoder.next_request() {
                Ok(Some(req)) => req,
                Ok(None) => break,
                Err(err) => {
                    metrics.wire_malformed_frames.inc();
                    // A malformed frame is a flight-recorder anomaly: dump
                    // the recent-event rings for the postmortem.
                    manager.trigger_flight_dump(FlightReason::MalformedFrame);
                    if echowrite_trace::enabled() {
                        echowrite_trace::instant(
                            Stage::Wire,
                            "frame_malformed",
                            TICK_UNSET,
                            SmallStr::from_display(format_args!("conn {conn_id}: {err}")),
                        );
                    }
                    break 'conn;
                }
            };
            metrics.wire_frames_read.inc();
            if echowrite_trace::enabled() {
                echowrite_trace::span(
                    Stage::Wire,
                    "frame_decode",
                    TICK_UNSET,
                    (decode_timer.elapsed_ms() * 1_000.0) as u64,
                    1.0,
                );
            }
            let session = req.session();
            if matches!(req, WireRequest::Open { .. } | WireRequest::Import { .. }) {
                // Register before submitting: events for this session may
                // arrive as soon as the shard processes the open (an
                // imported session emits events the same way).
                owned.insert(session);
                lock(&shared.registry).insert(session, (conn_id, tx.clone()));
            }
            let response = match req {
                WireRequest::Open { .. } => Response::from_verdict(
                    request_id,
                    session,
                    manager.submit_tagged(Request::Open(SessionId(session)), request_id),
                ),
                WireRequest::Push { ref samples, .. } => Response::from_verdict(
                    request_id,
                    session,
                    manager.submit_tagged(Request::Push(SessionId(session), samples), request_id),
                ),
                WireRequest::Finish { .. } => Response::from_verdict(
                    request_id,
                    session,
                    manager.submit_tagged(Request::Finish(SessionId(session)), request_id),
                ),
                // Export/Import block this connection's reader until the
                // owning shard processes them — the snapshot must reflect
                // every previously enqueued push — without stalling any
                // other connection.
                WireRequest::Export { .. } => Response::Exported {
                    request_id,
                    session,
                    snapshot: manager.export_session(SessionId(session)),
                },
                WireRequest::Import { snapshot, .. } => Response::Imported {
                    request_id,
                    session,
                    ok: manager.import_session(SessionId(session), snapshot),
                },
            };
            if !send_counted(tx, response, || {
                metrics.wire_write_stalls.inc();
            }) {
                break 'conn;
            }
        }
    }
    let mut registry = lock(&shared.registry);
    for session in owned {
        // Only remove entries still pointing at this connection — a
        // reconnecting client may have re-registered the session already.
        if registry.get(&session).is_some_and(|(owner, _)| *owner == conn_id) {
            registry.remove(&session);
        }
    }
}

/// The per-connection write half: response channel → encoded frames →
/// socket.
// echolint: entry
fn write_loop(mut stream: TcpStream, rx: &Receiver<Response>, manager: &Arc<SessionManager>) {
    let metrics = manager.metrics();
    let mut out = Vec::with_capacity(4096);
    while let Ok(resp) = rx.recv() {
        let timer = Stopwatch::start();
        out.clear();
        crate::frame::encode_response(&mut out, &resp);
        if stream.write_all(&out).is_err() {
            return;
        }
        metrics.wire_frames_written.inc();
        if echowrite_trace::enabled() {
            echowrite_trace::span(
                Stage::Wire,
                "frame_write",
                TICK_UNSET,
                (timer.elapsed_ms() * 1_000.0) as u64,
                out.len() as f64,
            );
        }
    }
    let _ = stream.flush();
}

/// The event router: serve events → the owning connection's writer. Holds
/// no manager reference — exits when the manager's shutdown disconnects
/// the stream.
// echolint: entry
fn route_events(events: EventStream, shared: &Arc<Shared>) {
    while let Some(event) = events.recv() {
        let resp = Response::from_event(event);
        let session = resp.session().0;
        let Some((_, tx)) = lock(&shared.registry).get(&session).cloned() else {
            // ordering: Relaxed — an independent statistic.
            shared.router_orphans.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let _ = send_counted(&tx, resp, || {
            // ordering: Relaxed — an independent statistic.
            shared.router_stalls.fetch_add(1, Ordering::Relaxed);
        });
    }
}
