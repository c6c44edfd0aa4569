//! The server: a TCP acceptor, per-connection reader threads, and a pool of
//! executor threads draining one bounded request queue.
//!
//! Concurrency model:
//!
//! * Each accepted connection gets a **reader thread** that decodes frames
//!   and answers cheap requests (ping, stats, close, shutdown) inline.
//!   Query/prepare/execute/insert requests are enqueued for the executors so
//!   a slow query on one connection never stalls another connection's reads.
//! * **Executor threads** pop requests, pin a [`Snapshot`] of the database,
//!   build a [`Session`] over it (sharing the process-wide plan cache and
//!   the engine worker pool), execute, and write the response back through
//!   the connection's write half. Responses to one connection may therefore
//!   complete out of order; the client matches them by request id.
//! * **Writers** go through [`SnapshotStore::update`]: copy-on-write of the
//!   touched relations and an atomic publish. Readers executing against
//!   pinned snapshots are never blocked and never observe partial writes.
//!
//! Admission control is two-layered: a connection cap (refused with
//! `TooManyConnections`) and a bounded queue (refused with `Overloaded`,
//! carrying a retry-after hint derived from the current queue depth).
//!
//! Robustness additions on top of that model:
//!
//! * **Durability** — with [`ServerConfig::data_dir`] set, the server opens
//!   a [`DurableStore`]: state left by a previous process is recovered from
//!   its newest valid checkpoint plus WAL suffix, and every `Insert` is
//!   appended to the WAL and fsync'd *before* the `Ack` is written back.
//!   An acknowledged write therefore survives a crash at any instant.
//! * **Deadlines** — `Query`/`Execute` requests may carry a deadline;
//!   requests still queued past it are dropped without executing, and
//!   running requests are cancelled cooperatively at morsel boundaries.
//! * **Idle reaping / write timeouts** — connections silent past
//!   [`ServerConfig::idle_timeout_ms`] are closed with a clean `Ack` on the
//!   server channel, and sockets carry a write timeout so one stalled peer
//!   cannot wedge an executor mid-response.

use crate::config::ServerConfig;
use crate::protocol::{
    decode_request, encode_response, write_frame, AnswerBody, ErrorCode, ReplStatusBody, Request,
    Response, ServerStats, WireCertainty, MAX_FRAME_LEN,
};
use crate::queue::Queue;
use crate::replication::{self, ReplState, Subscription};
use certus::{Certainty, CertusError, Database, PreparedQuery, Session, SharedPlanCache};
use certus_algebra::RaExpr;
use certus_data::snapshot::{Snapshot, SnapshotStore};
use certus_data::wal::{DurableStore, ReplPosition, WalError};
use certus_exec::CancelToken;
use certus_obs::failpoint::{apply_delay, failpoints, FailAction};
use certus_obs::metrics::{registry, Counter, Gauge, Histogram};
use certus_obs::{names, Timer};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Failpoint checked before handing a request to the executor queue:
/// non-`Off` sheds the request exactly as if the queue were full
/// (`Overloaded` with a retry hint), exercising admission control above
/// the storage layer.
pub const FP_ENQUEUE: &str = "server.enqueue";
/// Failpoint checked before any response frame is written: non-`Off` drops
/// the response on the floor, modeling a lost ack or a peer that died
/// mid-reply. Clients must treat the resulting timeout as indeterminate.
pub const FP_RESPOND: &str = "server.respond";
/// Failpoint checked *after* a durable insert is applied, fsync'd and
/// published but *before* its ack: the write is durable (and replicating)
/// yet the client sees an error — the canonical indeterminate write.
pub const FP_PUBLISH: &str = "server.publish";

/// How long a shutting-down primary waits, after its `Close` segment, for a
/// subscriber to read the drained stream and close its end.
const DRAIN_LINGER: Duration = Duration::from_secs(5);

impl From<WireCertainty> for Certainty {
    fn from(c: WireCertainty) -> Certainty {
        match c {
            WireCertainty::Plain => Certainty::Plain,
            WireCertainty::CertainPlus => Certainty::CertainPlus,
            WireCertainty::PossibleStar => Certainty::PossibleStar,
            WireCertainty::Both => Certainty::Both,
        }
    }
}

impl From<Certainty> for WireCertainty {
    fn from(c: Certainty) -> WireCertainty {
        match c {
            Certainty::Plain => WireCertainty::Plain,
            Certainty::CertainPlus => WireCertainty::CertainPlus,
            Certainty::PossibleStar => WireCertainty::PossibleStar,
            Certainty::Both => WireCertainty::Both,
        }
    }
}

/// Build the canonical wire body from a session answer set. Used by the
/// server for responses and by differential harnesses to compute expected
/// bytes from a local [`Session`] run.
pub fn answer_body(answers: &certus::AnswerSet) -> AnswerBody {
    AnswerBody {
        certainty: answers.certainty.into(),
        plain: answers.plain.clone(),
        certain: answers.certain.clone(),
        possible: answers.possible.clone(),
        breakdown: answers
            .breakdown
            .as_ref()
            .map(|b| (b.total as u64, b.certain as u64, b.false_positives as u64)),
    }
}

/// A prepared statement held server-side for one connection: the original
/// query (for transparent re-preparation after an epoch bump) plus the
/// compiled [`PreparedQuery`].
struct PreparedEntry {
    query: RaExpr,
    certainty: Certainty,
    prepared: PreparedQuery,
}

/// Per-connection state shared between its reader thread, the executors,
/// and (for subscriber connections) the replication sender thread.
pub(crate) struct Conn {
    /// Write half; executors, the reader and replication senders all
    /// respond through it.
    pub(crate) writer: Mutex<TcpStream>,
    /// Requests handed to the executors and not yet responded to.
    outstanding: AtomicUsize,
    /// Prepared statements, keyed by connection-scoped id.
    prepared: Mutex<HashMap<u64, PreparedEntry>>,
    next_prepared: AtomicU64,
}

impl Conn {
    /// Serialize and send one response, reporting whether the write
    /// succeeded. A dead peer is detected (and cleaned up) by the reader
    /// thread, so most callers ignore the result; the replication sender
    /// uses it to stop streaming into a closed socket.
    pub(crate) fn send(&self, request_id: u64, resp: &Response) -> bool {
        match apply_delay(failpoints().check(FP_RESPOND)) {
            FailAction::Off => {}
            // Injected: the response vanishes as if the socket died after
            // the request was processed.
            _ => return false,
        }
        let payload = encode_response(request_id, resp);
        let mut w = self.writer.lock().expect("connection writer poisoned");
        write_frame(&mut *w, &payload).is_ok()
    }
}

/// A unit of executor work: one decoded request bound to its connection.
struct Work {
    conn: Arc<Conn>,
    request_id: u64,
    request: Request,
    /// When the reader finished decoding the request; deadlines are measured
    /// from here, so time spent queued counts against them.
    arrival: Instant,
}

/// Everything the acceptor, readers, executors and replication threads
/// share.
pub(crate) struct State {
    pub(crate) config: ServerConfig,
    store: Arc<SnapshotStore>,
    /// WAL-backed durability; `None` when serving from memory only.
    pub(crate) durable: Option<Arc<DurableStore>>,
    /// Replication role, term and subscriber hub (present on every server;
    /// a standalone node is a primary with no subscribers).
    pub(crate) repl: ReplState,
    cache: SharedPlanCache,
    pool: Arc<certus_exec::Pool>,
    queue: Queue<Work>,
    shutdown: AtomicBool,
    open_connections: AtomicUsize,
    readers: Mutex<Vec<JoinHandle<()>>>,
    requests: Arc<Counter>,
    rejected: Arc<Counter>,
    stale_replans: Arc<Counter>,
    deadline_exceeded: Arc<Counter>,
    idle_closed: Arc<Counter>,
    connections_gauge: Arc<Gauge>,
    request_ns: Arc<Histogram>,
}

impl State {
    pub(crate) fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// The node's durable WAL position (default when serving from memory).
    fn durable_position(&self) -> ReplPosition {
        self.durable.as_ref().map(|d| d.position()).unwrap_or_default()
    }

    fn repl_status(&self) -> ReplStatusBody {
        self.repl.status(self.durable_position())
    }

    /// A session over one pinned snapshot, wired to the shared plan cache,
    /// the shared engine worker pool, and (for deadline-bearing requests)
    /// a cancellation token checked at morsel boundaries.
    fn session_over(&self, snapshot: &Snapshot, cancel: Option<CancelToken>) -> Session {
        let mut builder = Session::builder_over(snapshot.database())
            .semantics(self.config.semantics)
            .threads(self.config.engine_threads)
            .plan_cache(self.cache.clone())
            .worker_pool(Arc::clone(&self.pool));
        if let Some(token) = cancel {
            builder = builder.cancel_token(token);
        }
        builder.build()
    }

    /// How long an `Overloaded` client should wait before retrying: the
    /// current backlog divided across the executors, in poll-interval
    /// granules. Deep queues push retries further out; an almost-empty
    /// queue suggests an immediate retry will succeed.
    fn retry_after_ms(&self) -> u64 {
        let depth = self.queue.depth() as u64;
        let executors = self.config.executors.max(1) as u64;
        let granule = self.config.poll_interval_ms.max(1);
        ((depth * granule) / executors).clamp(granule, 2_000)
    }

    fn stats(&self) -> ServerStats {
        let cache = self.cache.stats();
        ServerStats {
            requests: self.requests.value(),
            rejected: self.rejected.value(),
            stale_replans: self.stale_replans.value(),
            connections: self.open_connections.load(Ordering::Relaxed) as u64,
            live_pins: self.store.live_pins(),
            queue_depth: self.queue.depth() as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries as u64,
            epoch: self.store.epoch(),
        }
    }
}

/// A running query server. Dropping (or calling [`Server::shutdown`])
/// stops accepting, drains in-flight requests, and joins every thread.
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    executors: Vec<JoinHandle<()>>,
    /// The replica apply loop, when this node started as a replica.
    replica: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind and start serving `db` under `config`.
    ///
    /// With [`ServerConfig::data_dir`] set, any state a previous process
    /// left in that directory is recovered first and `db` is used only to
    /// seed an empty directory; without it the server serves `db` from
    /// memory.
    pub fn start(db: Database, config: ServerConfig) -> std::io::Result<Server> {
        if config.replication.is_some() && config.data_dir.is_none() {
            return Err(std::io::Error::other(
                "replication ships the durable log: set ServerConfig::data_dir on both ends",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let (store, durable) = match &config.data_dir {
            Some(dir) => {
                let durable = DurableStore::open(dir, db, config.checkpoint_every)
                    .map_err(|e| std::io::Error::other(format!("durable store: {e}")))?;
                let durable = Arc::new(durable);
                (Arc::clone(durable.snapshots()), Some(durable))
            }
            None => (Arc::new(SnapshotStore::new(db)), None),
        };

        let reg = registry();
        let repl = ReplState::new(config.replication.clone());
        if let Some(d) = &durable {
            repl.publish(d.position());
        }
        let state = Arc::new(State {
            store,
            durable,
            repl,
            cache: SharedPlanCache::new(config.cache_capacity),
            pool: Arc::new(certus_exec::Pool::new(config.engine_threads)),
            queue: Queue::new(config.queue_capacity, reg.gauge(names::SERVER_QUEUE_DEPTH)),
            shutdown: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            readers: Mutex::new(Vec::new()),
            requests: reg.counter(names::SERVER_REQUESTS),
            rejected: reg.counter(names::SERVER_REJECTED),
            stale_replans: reg.counter(names::SERVER_STALE_REPLANS),
            deadline_exceeded: reg.counter(names::SERVER_DEADLINE_EXCEEDED),
            idle_closed: reg.counter(names::SERVER_IDLE_CLOSED),
            connections_gauge: reg.gauge(names::SERVER_CONNECTIONS),
            request_ns: reg.histogram(names::SERVER_REQUEST_NS),
            config,
        });

        let executors = (0..state.config.executors.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                thread::spawn(move || executor_loop(&state))
            })
            .collect();
        let acceptor = {
            let state = Arc::clone(&state);
            thread::spawn(move || accept_loop(&listener, &state))
        };
        let replica = state.repl.starts_as_replica().then(|| {
            let state = Arc::clone(&state);
            thread::spawn(move || replication::replica_loop(&state))
        });

        Ok(Server { state, addr, acceptor: Some(acceptor), executors, replica })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Schema epoch of the current snapshot.
    pub fn epoch(&self) -> u64 {
        self.state.store.epoch()
    }

    /// The durable store backing this server, when one was configured.
    pub fn durable(&self) -> Option<&Arc<DurableStore>> {
        self.state.durable.as_ref()
    }

    /// Whether a protocol-level `Shutdown` request has been received.
    pub fn shutdown_requested(&self) -> bool {
        self.state.shutting_down()
    }

    /// Stop accepting, drain the queue, flush in-flight responses, join all
    /// threads.
    pub fn shutdown(mut self) {
        self.teardown();
    }

    fn teardown(&mut self) {
        self.state.shutdown.store(true, Ordering::Relaxed);
        // Wake replication senders parked on the hub so they notice the
        // flag, drain whatever is durable, and close their streams cleanly.
        self.state.repl.wake_all();
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Readers exit on the shutdown flag once their in-flight work has
        // been answered (subscriber readers additionally wait for their
        // sender thread to finish draining); join them before closing the
        // queue so everything they enqueued is still drained by the
        // executors.
        let readers = std::mem::take(&mut *self.state.readers.lock().unwrap());
        for r in readers {
            let _ = r.join();
        }
        self.state.queue.close();
        for e in self.executors.drain(..) {
            let _ = e.join();
        }
        if let Some(replica) = self.replica.take() {
            let _ = replica.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.teardown();
    }
}

fn accept_loop(listener: &TcpListener, state: &Arc<State>) {
    let poll = Duration::from_millis(state.config.poll_interval_ms.max(1));
    loop {
        if state.shutting_down() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let open = state.open_connections.load(Ordering::Relaxed);
                if open >= state.config.max_connections {
                    state.rejected.incr();
                    refuse(
                        stream,
                        ErrorCode::TooManyConnections,
                        "connection cap reached",
                        state.config.poll_interval_ms.max(1) * 5,
                    );
                    continue;
                }
                state.open_connections.fetch_add(1, Ordering::Relaxed);
                state.connections_gauge.set(open as u64 + 1);
                let state2 = Arc::clone(state);
                let handle = thread::spawn(move || {
                    reader_loop(stream, &state2);
                    let open = state2.open_connections.fetch_sub(1, Ordering::Relaxed) - 1;
                    state2.connections_gauge.set(open as u64);
                });
                state.readers.lock().unwrap().push(handle);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => thread::sleep(poll),
            Err(_) => thread::sleep(poll),
        }
    }
}

/// Reject a connection with a single error frame (request id 0) and close.
fn refuse(mut stream: TcpStream, code: ErrorCode, message: &str, retry_after_ms: u64) {
    let resp = Response::error_after(code, message, retry_after_ms);
    let _ = write_frame(&mut stream, &encode_response(0, &resp));
}

/// Incremental frame decoder tolerant of read timeouts: bytes received so
/// far are buffered, so a poll that lands mid-frame never loses data (a
/// plain `read_exact` would).
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
}

pub(crate) enum Fill {
    /// Peer closed the connection.
    Eof,
    /// The framing layer is broken beyond recovery.
    Corrupt,
}

impl FrameBuffer {
    pub(crate) fn new() -> Self {
        FrameBuffer { buf: Vec::new() }
    }

    /// Pop one complete frame payload out of the buffer, if present.
    fn take_frame(&mut self) -> Result<Option<Vec<u8>>, Fill> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
        if len > MAX_FRAME_LEN {
            return Err(Fill::Corrupt);
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }

    /// Read whatever is available (bounded by the stream's read timeout)
    /// and return the first complete frame, if any.
    pub(crate) fn fill(&mut self, stream: &mut TcpStream) -> Result<Option<Vec<u8>>, Fill> {
        if let Some(frame) = self.take_frame()? {
            return Ok(Some(frame));
        }
        let mut chunk = [0u8; 16 * 1024];
        match stream.read(&mut chunk) {
            Ok(0) => Err(Fill::Eof),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                self.take_frame()
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                Ok(None)
            }
            Err(_) => Err(Fill::Eof),
        }
    }
}

fn reader_loop(stream: TcpStream, state: &Arc<State>) {
    let poll = Duration::from_millis(state.config.poll_interval_ms.max(1));
    let _ = stream.set_read_timeout(Some(poll));
    if state.config.write_timeout_ms > 0 {
        // Applies to the shared socket, so the executors' write half is
        // covered too: a peer that stops draining cannot wedge an executor.
        let _ =
            stream.set_write_timeout(Some(Duration::from_millis(state.config.write_timeout_ms)));
    }
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(Conn {
        writer: Mutex::new(writer),
        outstanding: AtomicUsize::new(0),
        prepared: Mutex::new(HashMap::new()),
        next_prepared: AtomicU64::new(1),
    });
    let peer_addr = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".into());
    let mut stream = stream;
    let mut frames = FrameBuffer::new();
    let idle_limit = (state.config.idle_timeout_ms > 0)
        .then(|| Duration::from_millis(state.config.idle_timeout_ms));
    let mut last_activity = Instant::now();
    // A replication subscription bound to this connection, when the peer
    // sent `Subscribe`. The loop breaks (instead of returning) so the
    // subscription is always finished — drained on shutdown, severed
    // otherwise.
    let mut subscription: Option<Subscription> = None;

    loop {
        let payload = match frames.fill(&mut stream) {
            Ok(Some(payload)) => {
                last_activity = Instant::now();
                payload
            }
            Ok(None) => {
                if state.shutting_down() {
                    drain_outstanding(&conn);
                    break;
                }
                if let Some(limit) = idle_limit {
                    // Only reap truly quiet connections: nothing in flight,
                    // no subscription (a caught-up subscriber is legitimately
                    // silent), and nothing received for the whole window.
                    if subscription.is_none()
                        && conn.outstanding.load(Ordering::Acquire) == 0
                        && last_activity.elapsed() >= limit
                    {
                        state.idle_closed.incr();
                        conn.send(0, &Response::Ack { epoch: state.store.epoch() });
                        return;
                    }
                }
                continue;
            }
            Err(Fill::Corrupt) => {
                conn.send(
                    0,
                    &Response::error(ErrorCode::Malformed, "frame length exceeds maximum"),
                );
                drain_outstanding(&conn);
                break;
            }
            Err(Fill::Eof) => {
                drain_outstanding(&conn);
                break;
            }
        };

        let (request_id, request) = match decode_request(&payload) {
            Ok(decoded) => decoded,
            Err(e) => {
                // The id is the first 8 bytes; echo it when present so the
                // client can match the failure to its request.
                let id = payload
                    .get(..8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .unwrap_or(0);
                conn.send(id, &Response::error(ErrorCode::Malformed, e.to_string()));
                continue;
            }
        };

        match request {
            Request::Ping => {
                conn.send(request_id, &Response::Pong { epoch: state.store.epoch() });
            }
            Request::Stats => {
                conn.send(request_id, &Response::Stats(state.stats()));
            }
            Request::Close => {
                drain_outstanding(&conn);
                conn.send(request_id, &Response::Ack { epoch: state.store.epoch() });
                break;
            }
            Request::Shutdown => {
                state.shutdown.store(true, Ordering::Relaxed);
                state.repl.wake_all();
                drain_outstanding(&conn);
                conn.send(request_id, &Response::Ack { epoch: state.store.epoch() });
                break;
            }
            Request::ReplStatus => {
                conn.send(request_id, &Response::ReplStatus(state.repl_status()));
            }
            Request::ReplicaAck { seq, offset } => {
                // Acks ride the subscription's socket back; a stray ack on
                // an unsubscribed connection is ignored (a late frame from
                // a torn-down stream, not an error worth killing reads for).
                if let Some(sub) = &subscription {
                    state.repl.record_ack(sub.peer_id, ReplPosition { seq, offset });
                }
            }
            Request::Subscribe { seq, offset } => {
                if let Some(primary) = state.repl.write_refusal() {
                    // Replicas don't cascade; subscribers belong on the
                    // primary.
                    conn.send(request_id, &replication::not_primary(primary));
                    continue;
                }
                if state.shutting_down() {
                    conn.send(
                        request_id,
                        &Response::error(ErrorCode::ShuttingDown, "server is shutting down"),
                    );
                    continue;
                }
                if state.durable.is_none() {
                    conn.send(
                        request_id,
                        &Response::error(
                            ErrorCode::Internal,
                            "replication requires a durable server (set data_dir)",
                        ),
                    );
                    continue;
                }
                if subscription.is_some() {
                    conn.send(
                        request_id,
                        &Response::error(
                            ErrorCode::Malformed,
                            "connection already carries a subscription",
                        ),
                    );
                    continue;
                }
                subscription = Some(replication::spawn_sender(
                    state,
                    &conn,
                    request_id,
                    ReplPosition { seq, offset },
                    peer_addr.clone(),
                ));
            }
            Request::Promote => {
                let resp = handle_promote(state);
                conn.send(request_id, &resp);
            }
            req @ (Request::Prepare { .. }
            | Request::Execute { .. }
            | Request::Query { .. }
            | Request::Insert { .. }) => {
                if state.shutting_down() {
                    conn.send(
                        request_id,
                        &Response::error(ErrorCode::ShuttingDown, "server is shutting down"),
                    );
                    continue;
                }
                conn.outstanding.fetch_add(1, Ordering::AcqRel);
                let work = Work {
                    conn: Arc::clone(&conn),
                    request_id,
                    request: req,
                    arrival: Instant::now(),
                };
                let shed = !matches!(apply_delay(failpoints().check(FP_ENQUEUE)), FailAction::Off);
                if shed || state.queue.push_try(work).is_err() {
                    conn.outstanding.fetch_sub(1, Ordering::AcqRel);
                    state.rejected.incr();
                    conn.send(
                        request_id,
                        &Response::error_after(
                            ErrorCode::Overloaded,
                            "request queue is full",
                            state.retry_after_ms(),
                        ),
                    );
                }
            }
        }
    }

    if let Some(sub) = subscription.take() {
        if state.shutting_down() {
            // Graceful drain (the satellite fix): keep consuming acks off
            // the socket until the sender has flushed everything durable
            // and sent its clean `Close` segment, so a restarted primary's
            // replicas resume incrementally instead of re-bootstrapping —
            // and then until the replica has read that far and closed its
            // end (it does on `Close`). Closing first would strand its last
            // acks unread in our receive buffer; the kernel answers that
            // with a reset, and a reset discards what the replica has not
            // read yet: the tail of the drain. Bounded, so a wedged replica
            // cannot hold up shutdown.
            let mut linger_until = None;
            loop {
                if sub.is_done() {
                    let until = *linger_until.get_or_insert_with(|| Instant::now() + DRAIN_LINGER);
                    if Instant::now() >= until {
                        break;
                    }
                }
                match frames.fill(&mut stream) {
                    Ok(Some(payload)) => {
                        if let Ok((_, Request::ReplicaAck { seq, offset })) =
                            decode_request(&payload)
                        {
                            state.repl.record_ack(sub.peer_id, ReplPosition { seq, offset });
                        }
                    }
                    Ok(None) => {}
                    Err(_) => break,
                }
            }
        }
        sub.finish(state);
    }
}

/// Handle a `Promote` request inline: seal the apply loop, wait for it to
/// stop (so no shipped record lands after the ack), then turn writable and
/// bump the term. Idempotent — promoting a primary just acks.
fn handle_promote(state: &Arc<State>) -> Response {
    match state.repl.begin_promote() {
        replication::Promotion::AlreadyPrimary => Response::Ack { epoch: state.store.epoch() },
        replication::Promotion::Sealed => {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !state.repl.apply_stopped() && Instant::now() < deadline {
                thread::sleep(Duration::from_millis(1));
            }
            if !state.repl.apply_stopped() {
                return Response::error_after(
                    ErrorCode::Internal,
                    "replica apply loop did not stop; promotion aborted",
                    100,
                );
            }
            state.repl.complete_promote();
            Response::Ack { epoch: state.store.epoch() }
        }
    }
}

/// Busy-wait (politely) until every request this connection handed to the
/// executors has been answered, so close/shutdown never drop responses.
fn drain_outstanding(conn: &Conn) {
    while conn.outstanding.load(Ordering::Acquire) > 0 {
        thread::sleep(Duration::from_millis(1));
    }
}

fn executor_loop(state: &Arc<State>) {
    while let Some(work) = state.queue.pop() {
        let timer = Timer::start();
        let response = respond(state, &work);
        work.conn.send(work.request_id, &response);
        work.conn.outstanding.fetch_sub(1, Ordering::AcqRel);
        state.requests.incr();
        state.request_ns.record(timer.elapsed_ns());
    }
}

fn query_error(state: &State, e: &CertusError) -> Response {
    if e.is_cancelled() {
        return deadline_error(state);
    }
    Response::error(ErrorCode::QueryError, e.to_string())
}

fn deadline_error(state: &State) -> Response {
    state.deadline_exceeded.incr();
    Response::error(ErrorCode::DeadlineExceeded, "request deadline exceeded")
}

/// Resolve a request's deadline field against its arrival time. Returns
/// `Err` with the ready-made error response when the deadline has already
/// passed (the request spent too long queued), `Ok(None)` when no deadline
/// was set.
fn resolve_deadline(
    state: &State,
    work: &Work,
    deadline_ms: u64,
) -> Result<Option<CancelToken>, Box<Response>> {
    if deadline_ms == 0 {
        return Ok(None);
    }
    let deadline = work.arrival + Duration::from_millis(deadline_ms);
    if Instant::now() >= deadline {
        return Err(Box::new(deadline_error(state)));
    }
    Ok(Some(CancelToken::with_deadline(deadline)))
}

fn respond(state: &Arc<State>, work: &Work) -> Response {
    match &work.request {
        Request::Prepare { certainty, query } => {
            let snapshot = state.store.pin();
            let session = state.session_over(&snapshot, None);
            let certainty = Certainty::from(*certainty);
            match session.prepare(query, certainty) {
                Ok(prepared) => {
                    let epoch = prepared.schema_epoch();
                    let id = work.conn.next_prepared.fetch_add(1, Ordering::Relaxed);
                    work.conn
                        .prepared
                        .lock()
                        .expect("prepared map poisoned")
                        .insert(id, PreparedEntry { query: query.clone(), certainty, prepared });
                    Response::Prepared { prepared: id, epoch }
                }
                Err(e) => query_error(state, &e),
            }
        }
        Request::Execute { prepared, deadline_ms } => {
            let cancel = match resolve_deadline(state, work, *deadline_ms) {
                Ok(cancel) => cancel,
                Err(resp) => return *resp,
            };
            let snapshot = state.store.pin();
            let session = state.session_over(&snapshot, cancel);
            let mut entries = work.conn.prepared.lock().expect("prepared map poisoned");
            let Some(entry) = entries.get_mut(prepared) else {
                return Response::error(
                    ErrorCode::UnknownPrepared,
                    format!("no prepared statement {prepared} on this connection"),
                );
            };
            match session.execute_prepared(&entry.prepared) {
                Ok(answers) => Response::Answers { body: answer_body(&answers), reprepared: false },
                Err(CertusError::StalePlan { .. }) => {
                    // The schema epoch moved past the plan: transparently
                    // re-prepare against the pinned snapshot and retry. The
                    // refreshed plan is stored for subsequent executes.
                    state.stale_replans.incr();
                    match session.prepare(&entry.query, entry.certainty) {
                        Ok(fresh) => {
                            entry.prepared = fresh;
                            match session.execute_prepared(&entry.prepared) {
                                Ok(answers) => Response::Answers {
                                    body: answer_body(&answers),
                                    reprepared: true,
                                },
                                Err(e) => query_error(state, &e),
                            }
                        }
                        Err(e) => query_error(state, &e),
                    }
                }
                Err(e) => query_error(state, &e),
            }
        }
        Request::Query { certainty, query, deadline_ms } => {
            let cancel = match resolve_deadline(state, work, *deadline_ms) {
                Ok(cancel) => cancel,
                Err(resp) => return *resp,
            };
            let snapshot = state.store.pin();
            let session = state.session_over(&snapshot, cancel);
            match session.execute(query, Certainty::from(*certainty)) {
                Ok(answers) => Response::Answers { body: answer_body(&answers), reprepared: false },
                Err(e) => query_error(state, &e),
            }
        }
        Request::Insert { table, rows } => {
            if let Some(primary) = state.repl.write_refusal() {
                // Replicas serve reads only; the message carries the
                // primary's address so clients can follow the redirect.
                return replication::not_primary(primary);
            }
            match &state.durable {
                // Durable path: the row is validated against the pinned
                // snapshot, WAL-appended and fsync'd, and only then published
                // and acknowledged. The Ack *is* the durability guarantee —
                // and under sync replication it additionally waits for the
                // configured quorum of replica acks.
                Some(durable) => match durable.insert(table, rows) {
                    Ok(epoch) => {
                        let pos = durable.position();
                        state.repl.publish(pos);
                        match apply_delay(failpoints().check(FP_PUBLISH)) {
                            FailAction::Off => {}
                            // Injected: the write is durable (and already
                            // streaming to replicas) but the ack is
                            // withheld — the canonical indeterminate write.
                            _ => {
                                return Response::error(
                                    ErrorCode::Internal,
                                    "injected fault at server.publish: write durable \
                                     but unacknowledged",
                                )
                            }
                        }
                        if let Some((quorum, timeout)) = state.repl.sync_quorum() {
                            let timer = Timer::start();
                            let reached = state.repl.wait_quorum(pos, quorum, timeout);
                            registry()
                                .histogram(names::REPL_QUORUM_WAIT_NS)
                                .record(timer.elapsed_ns());
                            if !reached {
                                registry().counter(names::REPL_QUORUM_TIMEOUTS).incr();
                                return Response::error(
                                    ErrorCode::Internal,
                                    format!(
                                        "write is durable locally but {quorum} replica ack(s) \
                                         did not arrive within {}ms; replication state unknown",
                                        timeout.as_millis()
                                    ),
                                );
                            }
                        }
                        Response::Ack { epoch }
                    }
                    Err(WalError::Data(message)) => Response::error(ErrorCode::QueryError, message),
                    Err(e) => {
                        Response::error(ErrorCode::Internal, format!("durable write failed: {e}"))
                    }
                },
                None => {
                    let outcome = state.store.update(|db| -> Result<u64, String> {
                        // Validate against a scratch copy first so a bad row
                        // leaves the published database (and its epoch)
                        // untouched.
                        let mut scratch = db.relation(table).map_err(|e| e.to_string())?.clone();
                        for row in rows {
                            scratch.insert(row.clone()).map_err(|e| e.to_string())?;
                        }
                        *db.relation_mut(table).map_err(|e| e.to_string())? = scratch;
                        Ok(db.schema_epoch())
                    });
                    match outcome {
                        Ok(epoch) => Response::Ack { epoch },
                        Err(message) => Response::error(ErrorCode::QueryError, message),
                    }
                }
            }
        }
        // Inline requests never reach the executors.
        Request::Ping
        | Request::Stats
        | Request::Close
        | Request::Shutdown
        | Request::Subscribe { .. }
        | Request::ReplicaAck { .. }
        | Request::Promote
        | Request::ReplStatus => {
            Response::error(ErrorCode::Internal, "inline request routed to executor")
        }
    }
}
