//! The server: a TCP acceptor and one reader thread per connection, which
//! executes that connection's requests itself behind one admission gate.
//!
//! Concurrency model:
//!
//! * Each accepted connection gets a **reader thread** that decodes a
//!   frame, handles it and writes the response before reading the next.
//!   Cheap requests (ping, stats, close, shutdown, replication) are answered
//!   at once. Query/prepare/execute/insert requests first take a slot from
//!   the **admission gate**, then pin a [`Snapshot`] of the database, build
//!   a [`Session`] over it (sharing the process-wide plan cache and the
//!   engine worker pool), execute, and answer. A connection's requests
//!   therefore run in the order sent and are answered in that order;
//!   parallelism comes from connections.
//! * **Writers** go through [`SnapshotStore::update`]: copy-on-write of the
//!   touched relations and an atomic publish. Readers executing against
//!   pinned snapshots are never blocked and never observe partial writes.
//!
//! Admission control is two-layered: a connection cap (refused with
//! `TooManyConnections`) and the gate: at most [`ServerConfig::executors`]
//! requests run at once, at most [`ServerConfig::queue_capacity`] more wait
//! for a slot in arrival order, and a request beyond both is refused with
//! `Overloaded`, carrying a retry-after hint derived from the waiting count.
//!
//! Robustness additions on top of that model:
//!
//! * **Durability** — with [`ServerConfig::data_dir`] set, the server opens
//!   a [`DurableStore`]: state left by a previous process is recovered from
//!   its newest valid checkpoint plus WAL suffix, and every `Insert` is
//!   appended to the WAL and fsync'd *before* the `Ack` is written back.
//!   An acknowledged write therefore survives a crash at any instant.
//! * **Deadlines** — `Query`/`Execute` requests may carry a deadline;
//!   the budget runs from decode, so a request whose deadline passed while
//!   it waited for a slot is answered without executing, and running
//!   requests are cancelled cooperatively at morsel boundaries.
//! * **Idle reaping / write timeouts** — connections silent past
//!   [`ServerConfig::idle_timeout_ms`] since their last response are closed
//!   with a clean `Ack` on the server channel, and sockets carry a write
//!   timeout so one stalled peer cannot hold a slot mid-response.

use crate::config::ServerConfig;
use crate::protocol::{
    decode_request, encode_response, write_frame, AnswerBody, ErrorCode, ReplStatusBody, Request,
    Response, ServerStats, WireCertainty, MAX_FRAME_LEN,
};
use crate::replication::{self, ReplState, Subscription};
use certus::algebra::RaExpr;
use certus::data::snapshot::{Snapshot, SnapshotStore};
use certus::data::wal::{DurableStore, ReplPosition, WalError};
use certus::exec::CancelToken;
use certus::obs::failpoint::{apply_delay, failpoints, FailAction};
use certus::obs::metrics::{registry, Counter, Gauge, Histogram};
use certus::obs::{names, Timer};
use certus::{Certainty, Database, Error, PreparedQuery, Session, SharedPlanCache, Tuple};
use std::collections::HashMap;
use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Failpoint checked before a request asks the admission gate for a slot:
/// non-`Off` sheds the request exactly as if the gate were full
/// (`Overloaded` with a retry hint), exercising admission control above
/// the storage layer.
pub const FP_ADMIT: &str = "server.admit";
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

/// Write timeout applied to accepted sockets, so one stalled peer can never
/// hold an execution slot mid-response.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

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

/// A connection's write half, shared between its reader thread and (for
/// subscriber connections) the replication sender thread.
pub(crate) struct Conn {
    pub(crate) writer: Mutex<TcpStream>,
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

/// The admission gate: at most `slots` requests execute at once, at most
/// `capacity` more wait for a slot, and waiters are admitted in arrival
/// order by ticket.
struct Gate {
    state: Mutex<Tickets>,
    freed: Condvar,
    slots: usize,
    capacity: usize,
    /// Mirrors the waiting count.
    waiting_gauge: Arc<Gauge>,
}

/// Requests running, and the tickets waiters draw in arrival order: `next`
/// is the next one drawn, `serving` the next one admitted.
#[derive(Default)]
struct Tickets {
    running: usize,
    next: u64,
    serving: u64,
}

impl Tickets {
    fn waiting(&self) -> usize {
        (self.next - self.serving) as usize
    }
}

/// A slot taken from the [`Gate`]; dropping it frees the slot.
struct Slot<'a>(&'a Gate);

impl Gate {
    /// Take a slot, waiting behind every earlier waiter; `None` when
    /// `capacity` requests are already waiting.
    fn admit(&self) -> Option<Slot<'_>> {
        let mut t = self.state.lock().expect("admission gate poisoned");
        if t.waiting() == 0 && t.running < self.slots {
            t.running += 1;
            return Some(Slot(self));
        }
        if t.waiting() >= self.capacity {
            return None;
        }
        let ticket = t.next;
        t.next += 1;
        self.waiting_gauge.set(t.waiting() as u64);
        while t.serving != ticket || t.running >= self.slots {
            t = self.freed.wait(t).expect("admission gate poisoned");
        }
        t.serving += 1;
        t.running += 1;
        self.waiting_gauge.set(t.waiting() as u64);
        drop(t);
        // The next ticket may fit into a slot freed at the same time.
        self.freed.notify_all();
        Some(Slot(self))
    }

    fn waiting(&self) -> usize {
        self.state.lock().expect("admission gate poisoned").waiting()
    }
}

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        // Every update of the counters is a single step, so a poisoned lock
        // still guards valid counts; the slot must be freed either way.
        self.0.state.lock().unwrap_or_else(PoisonError::into_inner).running -= 1;
        self.0.freed.notify_all();
    }
}

/// Everything the acceptor, readers and replication threads share.
pub(crate) struct State {
    pub(crate) config: ServerConfig,
    store: Arc<SnapshotStore>,
    /// WAL-backed durability; `None` when serving from memory only.
    pub(crate) durable: Option<Arc<DurableStore>>,
    /// Replication role, term and subscriber hub (present on every server;
    /// a standalone node is a primary with no subscribers).
    pub(crate) repl: ReplState,
    cache: SharedPlanCache,
    pool: Arc<certus::exec::Pool>,
    gate: Gate,
    shutdown: AtomicBool,
    open_connections: AtomicUsize,
    readers: Mutex<Vec<JoinHandle<()>>>,
    requests: Arc<Counter>,
    rejected: Arc<Counter>,
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
    /// requests waiting for a slot divided across the slots, in
    /// poll-interval granules. A long wait pushes retries further out; an
    /// almost-empty one suggests an immediate retry will succeed.
    fn retry_after_ms(&self) -> u64 {
        let depth = self.gate.waiting() as u64;
        let executors = self.config.executors.max(1) as u64;
        let granule = self.config.poll_interval_ms.max(1);
        ((depth * granule) / executors).clamp(granule, 2_000)
    }

    fn stats(&self) -> ServerStats {
        let cache = self.cache.stats();
        ServerStats {
            requests: self.requests.value(),
            rejected: self.rejected.value(),
            // A write moves the data version, not the schema epoch the
            // statements are keyed on, so no statement is ever re-prepared.
            stale_replans: 0,
            connections: self.open_connections.load(Ordering::Relaxed) as u64,
            live_pins: self.store.live_pins(),
            queue_depth: self.gate.waiting() as u64,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_entries: cache.entries as u64,
            epoch: self.store.epoch(),
        }
    }
}

/// A running query server. Dropping (or calling [`Server::shutdown`])
/// stops accepting, answers every admitted request, and joins every thread.
pub struct Server {
    state: Arc<State>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
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
            pool: Arc::new(certus::exec::Pool::new(config.engine_threads)),
            gate: Gate {
                state: Mutex::default(),
                freed: Condvar::new(),
                slots: config.executors.max(1),
                capacity: config.queue_capacity,
                waiting_gauge: reg.gauge(names::SERVER_QUEUE_DEPTH),
            },
            shutdown: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            readers: Mutex::new(Vec::new()),
            requests: reg.counter(names::SERVER_REQUESTS),
            rejected: reg.counter(names::SERVER_REJECTED),
            deadline_exceeded: reg.counter(names::SERVER_DEADLINE_EXCEEDED),
            idle_closed: reg.counter(names::SERVER_IDLE_CLOSED),
            connections_gauge: reg.gauge(names::SERVER_CONNECTIONS),
            request_ns: reg.histogram(names::SERVER_REQUEST_NS),
            config,
        });

        let acceptor = {
            let state = Arc::clone(&state);
            thread::spawn(move || accept_loop(&listener, &state))
        };
        let replica = state.repl.starts_as_replica().then(|| {
            let state = Arc::clone(&state);
            thread::spawn(move || replication::replica_loop(&state))
        });

        Ok(Server { state, addr, acceptor: Some(acceptor), replica })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Data version of the current snapshot.
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

    /// Stop accepting, answer every admitted request, join all threads.
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
        // Readers exit on the shutdown flag after answering the request they
        // are running or waiting for a slot for (subscriber readers
        // additionally wait for their sender thread to finish draining).
        let readers = std::mem::take(&mut *self.state.readers.lock().unwrap());
        for r in readers {
            let _ = r.join();
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
    // Applies to the shared socket, so the write half is covered too: a peer
    // that stops draining cannot hold a slot mid-response.
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let conn = Arc::new(Conn { writer: Mutex::new(writer) });
    let peer_addr = stream.peer_addr().map(|a| a.to_string()).unwrap_or_else(|_| "unknown".into());
    let mut stream = stream;
    let mut frames = FrameBuffer::new();
    // Prepared statements, keyed by connection-scoped id. None is ever
    // dropped, so ids run densely from 1. A statement stays executable
    // across writes: it is keyed on the schema epoch, which no request moves.
    let mut statements: HashMap<u64, PreparedQuery> = HashMap::new();
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
                    break;
                }
                if let Some(limit) = idle_limit {
                    // Only reap truly quiet connections: no subscription (a
                    // caught-up subscriber is legitimately silent), and
                    // nothing received or answered for the whole window.
                    if subscription.is_none() && last_activity.elapsed() >= limit {
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
                break;
            }
            Err(Fill::Eof) => break,
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
                conn.send(request_id, &Response::Ack { epoch: state.store.epoch() });
                break;
            }
            Request::Shutdown => {
                state.shutdown.store(true, Ordering::Relaxed);
                state.repl.wake_all();
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
            Request::Prepare { certainty, query } => serve(state, &conn, request_id, 0, |_| {
                prepare(state, &mut statements, &query, certainty.into())
            }),
            Request::Execute { prepared, deadline_ms } => {
                serve(state, &conn, request_id, deadline_ms, |cancel| {
                    execute(state, &statements, prepared, cancel)
                })
            }
            Request::Query { certainty, query, deadline_ms } => {
                serve(state, &conn, request_id, deadline_ms, |cancel| {
                    run_query(state, &query, certainty.into(), cancel)
                })
            }
            Request::Insert { table, rows } => {
                serve(state, &conn, request_id, 0, |_| insert(state, &table, &rows))
            }
        }
        // The idle window runs from the last response, so a request that
        // ran longer than the window does not count as silence.
        last_activity = Instant::now();
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

/// Admit, execute and answer one request on the calling reader thread.
/// A nonzero `deadline_ms` runs from decode, so time spent waiting for a
/// slot counts against it: a request whose deadline passed while it waited
/// is answered without running, and `run` gets a token cancelling it at
/// the deadline otherwise.
fn serve(
    state: &State,
    conn: &Conn,
    request_id: u64,
    deadline_ms: u64,
    run: impl FnOnce(Option<CancelToken>) -> Response,
) {
    let arrival = Instant::now();
    if state.shutting_down() {
        conn.send(request_id, &Response::error(ErrorCode::ShuttingDown, "server is shutting down"));
        return;
    }
    let shed = !matches!(apply_delay(failpoints().check(FP_ADMIT)), FailAction::Off);
    let Some(slot) = (if shed { None } else { state.gate.admit() }) else {
        state.rejected.incr();
        let retry_after_ms = state.retry_after_ms();
        conn.send(
            request_id,
            &Response::error_after(ErrorCode::Overloaded, "request queue is full", retry_after_ms),
        );
        return;
    };
    let timer = Timer::start();
    let deadline = (deadline_ms > 0).then(|| arrival + Duration::from_millis(deadline_ms));
    let response = match deadline {
        Some(deadline) if Instant::now() >= deadline => deadline_error(state),
        _ => run(deadline.map(CancelToken::with_deadline)),
    };
    conn.send(request_id, &response);
    drop(slot);
    state.requests.incr();
    state.request_ns.record(timer.elapsed_ns());
}

fn query_error(state: &State, e: &Error) -> Response {
    if e.is_cancelled() {
        return deadline_error(state);
    }
    Response::error(ErrorCode::QueryError, e.to_string())
}

fn deadline_error(state: &State) -> Response {
    state.deadline_exceeded.incr();
    Response::error(ErrorCode::DeadlineExceeded, "request deadline exceeded")
}

fn prepare(
    state: &State,
    statements: &mut HashMap<u64, PreparedQuery>,
    query: &RaExpr,
    certainty: Certainty,
) -> Response {
    let snapshot = state.store.pin();
    let session = state.session_over(&snapshot, None);
    match session.prepare(query, certainty) {
        Ok(prepared) => {
            let epoch = prepared.schema_epoch();
            let id = statements.len() as u64 + 1;
            statements.insert(id, prepared);
            Response::Prepared { prepared: id, epoch }
        }
        Err(e) => query_error(state, &e),
    }
}

fn execute(
    state: &State,
    statements: &HashMap<u64, PreparedQuery>,
    prepared: u64,
    cancel: Option<CancelToken>,
) -> Response {
    let Some(prepared) = statements.get(&prepared) else {
        return Response::error(
            ErrorCode::UnknownPrepared,
            format!("no prepared statement {prepared} on this connection"),
        );
    };
    let snapshot = state.store.pin();
    match state.session_over(&snapshot, cancel).execute_prepared(prepared) {
        Ok(answers) => Response::Answers { body: answer_body(&answers), reprepared: false },
        Err(e) => query_error(state, &e),
    }
}

fn run_query(
    state: &State,
    query: &RaExpr,
    certainty: Certainty,
    cancel: Option<CancelToken>,
) -> Response {
    let snapshot = state.store.pin();
    let session = state.session_over(&snapshot, cancel);
    match session.execute(query, certainty) {
        Ok(answers) => Response::Answers { body: answer_body(&answers), reprepared: false },
        Err(e) => query_error(state, &e),
    }
}

fn insert(state: &State, table: &str, rows: &[Tuple]) -> Response {
    if let Some(primary) = state.repl.write_refusal() {
        // Replicas serve reads only; the message carries the
        // primary's address so clients can follow the redirect.
        return replication::not_primary(primary);
    }
    match &state.durable {
        // Durable path: the rows are validated against the pinned
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
                    registry().histogram(names::REPL_QUORUM_WAIT_NS).record(timer.elapsed_ns());
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
            Err(e) => Response::error(ErrorCode::Internal, format!("durable write failed: {e}")),
        },
        // In-memory path: `append` checks the incoming rows before writing
        // any, so a bad batch leaves the published rows (and the data
        // version) untouched.
        None => match state.store.update(|db| db.append(table, rows).map(|()| db.version())) {
            Ok(epoch) => Response::Ack { epoch },
            Err(e) => Response::error(ErrorCode::QueryError, e.to_string()),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(slots: usize, capacity: usize) -> Gate {
        Gate {
            state: Mutex::default(),
            freed: Condvar::new(),
            slots,
            capacity,
            waiting_gauge: registry().gauge("test.gate.waiting"),
        }
    }

    fn wait_until_waiting(gate: &Gate, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while gate.waiting() != n {
            assert!(Instant::now() < deadline, "gate never reached {n} waiting");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn gate_sheds_beyond_waiting_places() {
        let gate = gate(1, 2);
        let running = gate.admit().expect("a free slot admits at once");
        thread::scope(|s| {
            let first = s.spawn(|| drop(gate.admit().expect("a waiting place admits")));
            wait_until_waiting(&gate, 1);
            let second = s.spawn(|| drop(gate.admit().expect("a waiting place admits")));
            wait_until_waiting(&gate, 2);
            assert!(gate.admit().is_none(), "a full gate sheds");
            assert_eq!(gate.waiting(), 2);
            drop(running);
            first.join().unwrap();
            second.join().unwrap();
        });
        assert_eq!(gate.waiting(), 0);
        assert!(gate.admit().is_some(), "a drained gate admits again");
    }
}
