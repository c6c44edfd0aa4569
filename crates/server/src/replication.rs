//! WAL-shipping replication: a primary streams its durable log to read
//! replicas; an operator promotes a replica when the primary dies.
//!
//! # Model (stated honestly)
//!
//! This is **log shipping with operator-driven failover**, not consensus.
//! There is no leader election, no fencing of a deposed primary, and no
//! automatic reconfiguration: `Promote` makes one replica writable and bumps
//! a wire-visible *term*, and it is the operator's job to stop the old
//! primary and repoint surviving replicas. What the protocol does guarantee:
//!
//! * **Acked writes survive failover under sync mode.** With
//!   [`ReplMode::Sync`], an `Insert` is acknowledged only after `quorum`
//!   replicas have applied the record, fsync'd it into their own WAL, and
//!   acked it back — fsync-before-ack extended across the wire. Any replica
//!   that contributed to the quorum can be promoted without losing the write.
//! * **Replicas are never torn.** Segments carry the same checksummed
//!   envelopes the WAL itself uses; a replica decodes and validates every
//!   record *before* appending, refuses non-contiguous segments, and a torn
//!   or faulted stream just drops the subscription — the replica re-subscribes
//!   from its own durable position and the primary resumes (or re-bootstraps
//!   it from a checkpoint if its position has been rotated away).
//! * **Unacked writes may or may not survive** a primary crash (the record
//!   may have reached zero, some, or all replicas). Clients must treat an
//!   errored write as *indeterminate*, exactly like a local fsync failure.
//!
//! # Stream mechanics
//!
//! A replica sends `Subscribe{seq, offset}` on a plain client connection
//! (`u64::MAX/u64::MAX` requests a checkpoint bootstrap). The primary spawns
//! a sender thread that pushes `WalSegment` frames on that socket — see
//! [`SegmentKind`] for the five kinds — while the connection's reader thread
//! keeps consuming `ReplicaAck` frames. Acks feed the quorum gate for sync
//! mode and the lag figures reported by `ReplStatus`.

use crate::protocol::{
    decode_response, encode_request, encode_response, write_frame, ErrorCode, ReplRole,
    ReplStatusBody, ReplicaLag, Request, Response, SegmentKind,
};
use crate::server::{Conn, FrameBuffer, State};
use certus::data::wal::{ReplPosition, WalChunk};
use certus::obs::failpoint::{apply_delay, failpoints, FailAction};
use certus::obs::metrics::registry;
use certus::obs::names;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Failpoint checked by a primary before shipping each `Records` segment.
/// `Error` severs the subscriber's socket; `Torn(n)` writes only the first
/// `n` bytes of the frame and then severs it, leaving a torn segment on the
/// wire for the replica's framing layer to reject.
pub const FP_REPL_SEND: &str = "repl.send";
/// Failpoint checked by a replica before applying a received `Records`
/// segment: the apply fails, the stream drops, and the replica re-subscribes
/// from its durable position.
pub const FP_REPL_APPLY: &str = "repl.apply";

/// Target payload size of one `Records` segment a primary ships (always at
/// least one whole record).
const MAX_SEGMENT_BYTES: usize = 1 << 20;

/// Term a fresh primary starts at; promotions bump past the highest term
/// observed on the stream.
const INITIAL_TERM: u64 = 1;

/// Replication mode a primary runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplMode {
    /// Writes are acknowledged after the local fsync; per-replica lag is
    /// tracked and reported but never waited on.
    Async,
    /// A write is acknowledged only after `quorum` replicas acked (applied
    /// and fsync'd) its record.
    Sync {
        /// Replica acks required before a write acks. `0` degenerates to
        /// [`ReplMode::Async`].
        quorum: usize,
    },
}

/// Replication configuration for one node; install it via
/// `ServerConfig::replication`. Requires `ServerConfig::data_dir` on both
/// ends: replication ships the durable log, so there must be one.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// `Some(addr)` starts this node as a replica applying from that
    /// primary; `None` starts it as a primary.
    pub primary: Option<String>,
    /// Mode used while this node is primary — from the start, or after a
    /// `Promote`.
    pub mode: ReplMode,
    /// Sync mode: how long an insert waits for its quorum before failing
    /// with an "acked on replicas: unknown" error.
    pub ack_timeout_ms: u64,
    /// Replica: pause between subscription attempts after a stream fault or
    /// a clean close.
    pub reconnect_ms: u64,
}

impl ReplicationConfig {
    fn base() -> ReplicationConfig {
        ReplicationConfig {
            primary: None,
            mode: ReplMode::Async,
            ack_timeout_ms: 5_000,
            reconnect_ms: 50,
        }
    }

    /// A primary in the given mode.
    pub fn primary(mode: ReplMode) -> ReplicationConfig {
        ReplicationConfig { mode, ..ReplicationConfig::base() }
    }

    /// A replica of `primary`, which will run in `mode` if promoted.
    pub fn replica(primary: impl Into<String>, mode: ReplMode) -> ReplicationConfig {
        ReplicationConfig { primary: Some(primary.into()), mode, ..ReplicationConfig::base() }
    }
}

/// One live subscriber, tracked by the hub on the primary.
struct Peer {
    addr: String,
    /// Highest position shipped to this peer.
    sent: ReplPosition,
    /// Highest position the peer acked (applied + fsync'd on its side).
    acked: ReplPosition,
    /// Cleared by the reader when the subscriber's connection dies; the
    /// sender thread exits on it and quorum counting skips dead peers.
    alive: Arc<AtomicBool>,
}

struct Hub {
    next_id: u64,
    peers: HashMap<u64, Peer>,
    /// Highest locally durable position, published by the insert path so
    /// parked sender threads wake without polling the store.
    durable: ReplPosition,
}

/// Outcome of [`ReplState::begin_promote`].
pub(crate) enum Promotion {
    /// Already writable — promote is idempotent.
    AlreadyPrimary,
    /// The apply loop has been sealed; wait for it to stop, then call
    /// [`ReplState::complete_promote`].
    Sealed,
}

/// Per-server replication state: role, term, and the subscriber hub.
/// Present on every server (a standalone node is a primary with no
/// subscribers) so the request paths need no special-casing.
pub(crate) struct ReplState {
    config: Option<ReplicationConfig>,
    term: AtomicU64,
    /// `Some(primary addr)` while this node is an un-promoted replica —
    /// the address carried by `NotPrimary` refusals.
    replica_of: Mutex<Option<String>>,
    /// Set by `Promote`: the apply loop must stop before the node turns
    /// writable, so no shipped record lands after the promotion ack.
    sealed: AtomicBool,
    /// The replica apply loop is not running (trivially true on primaries).
    apply_stopped: AtomicBool,
    /// Whether this replica has synced (bootstrapped or position-subscribed)
    /// at least once this process; a fresh process always bootstraps.
    synced: AtomicBool,
    hub: Mutex<Hub>,
    cv: Condvar,
}

impl ReplState {
    pub(crate) fn new(config: Option<ReplicationConfig>) -> ReplState {
        let is_replica = config.as_ref().is_some_and(|c| c.primary.is_some());
        ReplState {
            replica_of: Mutex::new(config.as_ref().and_then(|c| c.primary.clone())),
            config,
            term: AtomicU64::new(INITIAL_TERM),
            sealed: AtomicBool::new(false),
            apply_stopped: AtomicBool::new(!is_replica),
            synced: AtomicBool::new(false),
            hub: Mutex::new(Hub {
                next_id: 1,
                peers: HashMap::new(),
                durable: ReplPosition::default(),
            }),
            cv: Condvar::new(),
        }
    }

    /// Whether this node was configured as a replica (promoted or not);
    /// used at startup to decide whether to run the apply loop.
    pub(crate) fn starts_as_replica(&self) -> bool {
        self.config.as_ref().is_some_and(|c| c.primary.is_some())
    }

    /// `Some(primary addr)` when this node currently refuses writes.
    pub(crate) fn write_refusal(&self) -> Option<String> {
        self.replica_of.lock().expect("replication role poisoned").clone()
    }

    pub(crate) fn term(&self) -> u64 {
        self.term.load(Ordering::Acquire)
    }

    /// Fold a term seen on the wire into ours (terms only move forward).
    pub(crate) fn observe_term(&self, term: u64) {
        self.term.fetch_max(term, Ordering::AcqRel);
    }

    pub(crate) fn sealed(&self) -> bool {
        self.sealed.load(Ordering::Acquire)
    }

    pub(crate) fn apply_stopped(&self) -> bool {
        self.apply_stopped.load(Ordering::Acquire)
    }

    fn mark_apply_stopped(&self) {
        self.apply_stopped.store(true, Ordering::Release);
    }

    fn synced(&self) -> bool {
        self.synced.load(Ordering::Acquire)
    }

    fn mark_synced(&self) {
        self.synced.store(true, Ordering::Release);
    }

    /// First half of a promotion: seal the apply loop. The caller must wait
    /// for [`ReplState::apply_stopped`] before completing.
    pub(crate) fn begin_promote(&self) -> Promotion {
        if self.replica_of.lock().expect("replication role poisoned").is_none() {
            return Promotion::AlreadyPrimary;
        }
        self.sealed.store(true, Ordering::Release);
        Promotion::Sealed
    }

    /// Second half of a promotion: turn writable and bump the term past
    /// everything observed on the stream. Idempotent under races.
    pub(crate) fn complete_promote(&self) -> u64 {
        let mut role = self.replica_of.lock().expect("replication role poisoned");
        if role.is_none() {
            return self.term();
        }
        *role = None;
        registry().counter(names::REPL_PROMOTIONS).incr();
        self.term.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Sync-mode quorum gate for the insert path: `Some((quorum, timeout))`
    /// when this node is a primary running [`ReplMode::Sync`].
    pub(crate) fn sync_quorum(&self) -> Option<(usize, Duration)> {
        let cfg = self.config.as_ref()?;
        if self.write_refusal().is_some() {
            return None;
        }
        match cfg.mode {
            ReplMode::Sync { quorum } if quorum > 0 => {
                Some((quorum, Duration::from_millis(cfg.ack_timeout_ms.max(1))))
            }
            _ => None,
        }
    }

    fn reconnect_delay(&self) -> Duration {
        Duration::from_millis(self.config.as_ref().map(|c| c.reconnect_ms).unwrap_or(50).max(1))
    }

    fn register_peer(&self, addr: String) -> (u64, Arc<AtomicBool>) {
        let alive = Arc::new(AtomicBool::new(true));
        let mut hub = self.hub.lock().expect("replication hub poisoned");
        let id = hub.next_id;
        hub.next_id += 1;
        hub.peers.insert(
            id,
            Peer {
                addr,
                sent: ReplPosition::default(),
                acked: ReplPosition::default(),
                alive: Arc::clone(&alive),
            },
        );
        (id, alive)
    }

    fn unregister_peer(&self, id: u64) {
        let mut hub = self.hub.lock().expect("replication hub poisoned");
        hub.peers.remove(&id);
        registry().gauge(names::REPL_LAG_BYTES).set(max_lag(&hub));
        self.cv.notify_all();
    }

    fn record_sent(&self, id: u64, pos: ReplPosition) {
        let mut hub = self.hub.lock().expect("replication hub poisoned");
        if let Some(peer) = hub.peers.get_mut(&id) {
            peer.sent = pos;
        }
    }

    /// Record a subscriber ack; wakes sync-mode inserts parked on the quorum.
    pub(crate) fn record_ack(&self, id: u64, pos: ReplPosition) {
        let mut hub = self.hub.lock().expect("replication hub poisoned");
        if let Some(peer) = hub.peers.get_mut(&id) {
            peer.acked = peer.acked.max(pos);
        }
        registry().counter(names::REPL_ACKS).incr();
        registry().gauge(names::REPL_LAG_BYTES).set(max_lag(&hub));
        self.cv.notify_all();
    }

    /// Publish a new durable position (insert path); wakes parked senders.
    pub(crate) fn publish(&self, pos: ReplPosition) {
        let mut hub = self.hub.lock().expect("replication hub poisoned");
        hub.durable = hub.durable.max(pos);
        self.cv.notify_all();
    }

    /// Park a sender that is up to date, until something newer than `past`
    /// is published (or the timeout lapses — rotations don't publish, so
    /// senders re-check the store on a timer regardless).
    fn wait_for_publish(&self, past: ReplPosition, timeout: Duration) {
        let hub = self.hub.lock().expect("replication hub poisoned");
        if hub.durable > past {
            return;
        }
        let _ = self.cv.wait_timeout(hub, timeout).expect("replication hub poisoned");
    }

    /// Block until `quorum` live subscribers acked `pos`, or the deadline
    /// lapses. `true` means the quorum was reached.
    pub(crate) fn wait_quorum(&self, pos: ReplPosition, quorum: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut hub = self.hub.lock().expect("replication hub poisoned");
        loop {
            let acked = hub
                .peers
                .values()
                .filter(|p| p.alive.load(Ordering::Acquire) && p.acked >= pos)
                .count();
            if acked >= quorum {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (h, _) =
                self.cv.wait_timeout(hub, deadline - now).expect("replication hub poisoned");
            hub = h;
        }
    }

    /// Wake everything parked on the hub (teardown).
    pub(crate) fn wake_all(&self) {
        self.cv.notify_all();
    }

    /// Build the wire status body; `pos` is the node's durable position.
    pub(crate) fn status(&self, pos: ReplPosition) -> ReplStatusBody {
        let primary_addr = self.write_refusal();
        let role = if primary_addr.is_some() { ReplRole::Replica } else { ReplRole::Primary };
        let (mode, quorum) = match self.config.as_ref().map(|c| c.mode) {
            None => (0, 0),
            Some(ReplMode::Async) => (1, 0),
            Some(ReplMode::Sync { quorum }) => (2, quorum as u32),
        };
        let hub = self.hub.lock().expect("replication hub poisoned");
        let replicas = hub
            .peers
            .values()
            .filter(|p| p.alive.load(Ordering::Acquire))
            .map(|p| ReplicaLag {
                addr: p.addr.clone(),
                acked_seq: p.acked.seq,
                acked_offset: p.acked.offset,
                lag_bytes: lag_bytes(pos, p.acked),
            })
            .collect();
        ReplStatusBody {
            role,
            term: self.term(),
            seq: pos.seq,
            offset: pos.offset,
            mode,
            quorum,
            primary_addr,
            replicas,
        }
    }
}

/// Bytes of `durable` the peer at `acked` has not confirmed. Across a
/// rotation the exact byte count is unknowable (the old generation is
/// gone), so the whole live WAL is owed.
fn lag_bytes(durable: ReplPosition, acked: ReplPosition) -> u64 {
    if acked.seq == durable.seq {
        durable.offset.saturating_sub(acked.offset)
    } else if acked.seq > durable.seq {
        0
    } else {
        durable.offset
    }
}

fn max_lag(hub: &Hub) -> u64 {
    hub.peers
        .values()
        .filter(|p| p.alive.load(Ordering::Acquire))
        .map(|p| lag_bytes(hub.durable, p.acked))
        .max()
        .unwrap_or(0)
}

// ---------------------------------------------------------------------------
// Primary side: per-subscriber sender threads.
// ---------------------------------------------------------------------------

/// A live subscription owned by the connection's reader thread: the sender
/// thread pushing segments plus the hub registration to clean up.
pub(crate) struct Subscription {
    pub(crate) peer_id: u64,
    alive: Arc<AtomicBool>,
    done: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Subscription {
    /// Whether the sender thread has exited (drain complete or stream dead).
    pub(crate) fn is_done(&self) -> bool {
        self.done.load(Ordering::Acquire)
    }

    /// Stop the sender, join it, and drop the hub registration.
    pub(crate) fn finish(mut self, state: &State) {
        self.alive.store(false, Ordering::Release);
        state.repl.wake_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
        state.repl.unregister_peer(self.peer_id);
    }
}

/// Register `peer_addr` with the hub and spawn the sender thread that
/// streams segments from `from` over `conn`.
pub(crate) fn spawn_sender(
    state: &Arc<State>,
    conn: &Arc<Conn>,
    request_id: u64,
    from: ReplPosition,
    peer_addr: String,
) -> Subscription {
    let (peer_id, alive) = state.repl.register_peer(peer_addr);
    let done = Arc::new(AtomicBool::new(false));
    let handle = {
        let state = Arc::clone(state);
        let conn = Arc::clone(conn);
        let alive = Arc::clone(&alive);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            sender_loop(&state, &conn, request_id, peer_id, &alive, from);
            done.store(true, Ordering::Release);
        })
    };
    Subscription { peer_id, alive, done, handle: Some(handle) }
}

/// Sever the subscriber's socket (both halves); its reader sees EOF and the
/// replica re-subscribes.
fn sever(conn: &Conn) {
    if let Ok(w) = conn.writer.lock() {
        let _ = w.shutdown(Shutdown::Both);
    }
}

fn send_segment(
    conn: &Conn,
    request_id: u64,
    term: u64,
    kind: SegmentKind,
    seq: u64,
    offset: u64,
    bytes: Vec<u8>,
) -> bool {
    let n = bytes.len() as u64;
    let ok = conn.send(request_id, &Response::WalSegment { term, kind, seq, offset, bytes });
    if ok {
        let reg = registry();
        reg.counter(names::REPL_SEGMENTS_SENT).incr();
        reg.counter(names::REPL_SEGMENT_BYTES).add(n);
    }
    ok
}

/// Re-sync a subscriber from the current checkpoint: full state transfer,
/// used for fresh replicas and for positions rotated out from under them.
fn bootstrap_subscriber(
    state: &State,
    conn: &Conn,
    request_id: u64,
    peer_id: u64,
    at: &mut ReplPosition,
) -> bool {
    let durable = match &state.durable {
        Some(d) => d,
        None => return false,
    };
    let Ok((seq, bytes)) = durable.checkpoint_data() else {
        return false;
    };
    if !send_segment(conn, request_id, state.repl.term(), SegmentKind::Checkpoint, seq, 0, bytes) {
        return false;
    }
    *at = ReplPosition { seq, offset: 0 };
    state.repl.record_sent(peer_id, *at);
    true
}

/// The per-subscriber sender: stream segments from `from` until the
/// subscriber dies or the server drains for shutdown.
fn sender_loop(
    state: &Arc<State>,
    conn: &Arc<Conn>,
    request_id: u64,
    peer_id: u64,
    alive: &AtomicBool,
    from: ReplPosition,
) {
    let repl = &state.repl;
    let durable = match &state.durable {
        Some(d) => Arc::clone(d),
        None => return,
    };
    let poll = Duration::from_millis(state.config.poll_interval_ms.clamp(1, 50));
    // Confirm the stream with our position and term before any data flows.
    let pos = durable.position();
    if !send_segment(
        conn,
        request_id,
        repl.term(),
        SegmentKind::Heartbeat,
        pos.seq,
        pos.offset,
        Vec::new(),
    ) {
        sever(conn);
        return;
    }
    let mut at = from;
    loop {
        if !alive.load(Ordering::Acquire) {
            return;
        }
        match durable.read_chunk(at, MAX_SEGMENT_BYTES) {
            Ok(WalChunk::Records(bytes)) => {
                match apply_delay(failpoints().check(FP_REPL_SEND)) {
                    FailAction::Off => {}
                    FailAction::Error => {
                        sever(conn);
                        return;
                    }
                    FailAction::Torn(keep) => {
                        // Emit a torn frame: a prefix of the real segment,
                        // then a dead socket. The replica's framing layer
                        // must reject it and re-subscribe cleanly.
                        let seg = Response::WalSegment {
                            term: repl.term(),
                            kind: SegmentKind::Records,
                            seq: at.seq,
                            offset: at.offset,
                            bytes,
                        };
                        let payload = encode_response(request_id, &seg);
                        let mut framed = Vec::new();
                        let _ = write_frame(&mut framed, &payload);
                        let keep = keep.min(framed.len());
                        if let Ok(mut w) = conn.writer.lock() {
                            let _ = w.write_all(&framed[..keep]);
                        }
                        sever(conn);
                        return;
                    }
                    FailAction::SlowMs(_) => unreachable!("apply_delay resolves slow actions"),
                }
                let n = bytes.len() as u64;
                if !send_segment(
                    conn,
                    request_id,
                    repl.term(),
                    SegmentKind::Records,
                    at.seq,
                    at.offset,
                    bytes,
                ) {
                    sever(conn);
                    return;
                }
                at.offset += n;
                repl.record_sent(peer_id, at);
            }
            Ok(WalChunk::UpToDate) => {
                if state.shutting_down() {
                    // Drained: everything durable has been shipped. Close
                    // the stream cleanly so the replica resumes from this
                    // exact position after our restart — no re-bootstrap.
                    let _ = send_segment(
                        conn,
                        request_id,
                        repl.term(),
                        SegmentKind::Close,
                        at.seq,
                        at.offset,
                        Vec::new(),
                    );
                    return;
                }
                repl.wait_for_publish(at, poll);
            }
            Ok(WalChunk::Rotated) => match durable.last_rotation() {
                // The subscriber stands exactly where the last fold retired
                // the old generation: tell it to fold its own snapshot.
                Some((retired, new_seq)) if retired == at => {
                    if !send_segment(
                        conn,
                        request_id,
                        repl.term(),
                        SegmentKind::Rotate,
                        new_seq,
                        0,
                        Vec::new(),
                    ) {
                        sever(conn);
                        return;
                    }
                    at = ReplPosition { seq: new_seq, offset: 0 };
                    repl.record_sent(peer_id, at);
                }
                _ => {
                    if !bootstrap_subscriber(state, conn, request_id, peer_id, &mut at) {
                        sever(conn);
                        return;
                    }
                }
            },
            // Off the durable log entirely — a fresh replica asking for a
            // bootstrap (`u64::MAX`) or one that diverged: full re-sync.
            Err(_) => {
                if !bootstrap_subscriber(state, conn, request_id, peer_id, &mut at) {
                    sever(conn);
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Replica side: the apply loop.
// ---------------------------------------------------------------------------

fn send_request(stream: &mut TcpStream, request_id: u64, req: &Request) -> Result<(), String> {
    let payload = encode_request(request_id, req);
    write_frame(stream, &payload).map_err(|e| e.to_string())
}

/// The replica's apply loop: subscribe to the primary, apply segments,
/// ack, and re-subscribe after any fault — until shutdown or promotion.
pub(crate) fn replica_loop(state: &Arc<State>) {
    let repl = &state.repl;
    while !state.shutting_down() && !repl.sealed() {
        let outcome = run_subscription(state);
        if state.shutting_down() || repl.sealed() {
            break;
        }
        if outcome.is_err() {
            registry().counter(names::REPL_RESUBSCRIBES).incr();
        }
        thread::sleep(repl.reconnect_delay());
    }
    repl.mark_apply_stopped();
}

/// One subscription: connect, stream, apply. `Ok` is a clean close (the
/// primary drained for shutdown); `Err` is any fault.
fn run_subscription(state: &Arc<State>) -> Result<(), String> {
    let repl = &state.repl;
    let durable = match &state.durable {
        Some(d) => Arc::clone(d),
        None => return Err("replication requires a data_dir".into()),
    };
    let primary = repl.write_refusal().ok_or("no primary configured")?;
    let mut stream = TcpStream::connect(&primary).map_err(|e| e.to_string())?;
    let _ = stream.set_nodelay(true);
    let poll = Duration::from_millis(state.config.poll_interval_ms.clamp(1, 50));
    let _ = stream.set_read_timeout(Some(poll));
    // A fresh process always bootstraps (its local state may predate the
    // primary's); afterwards it resumes from its own durable position.
    let from = if repl.synced() {
        durable.position()
    } else {
        ReplPosition { seq: u64::MAX, offset: u64::MAX }
    };
    send_request(&mut stream, 1, &Request::Subscribe { seq: from.seq, offset: from.offset })?;
    let reg = registry();
    let mut frames = FrameBuffer::new();
    loop {
        if state.shutting_down() || repl.sealed() {
            return Ok(());
        }
        let payload = match frames.fill(&mut stream) {
            Ok(Some(payload)) => payload,
            Ok(None) => continue,
            Err(_) => return Err("subscription stream closed".into()),
        };
        let (_, resp) = decode_response(&payload).map_err(|e| e.to_string())?;
        match resp {
            Response::WalSegment { term, kind, seq, offset, bytes } => {
                repl.observe_term(term);
                match kind {
                    SegmentKind::Heartbeat => {}
                    SegmentKind::Close => return Ok(()),
                    SegmentKind::Records => {
                        match apply_delay(failpoints().check(FP_REPL_APPLY)) {
                            FailAction::Off => {}
                            _ => return Err("injected fault at repl.apply".into()),
                        }
                        let pos = durable
                            .apply_records(seq, offset, &bytes)
                            .map_err(|e| e.to_string())?;
                        repl.mark_synced();
                        reg.counter(names::REPL_BATCHES_APPLIED).incr();
                        reg.counter(names::REPL_APPLY_BYTES).add(bytes.len() as u64);
                        send_request(
                            &mut stream,
                            0,
                            &Request::ReplicaAck { seq: pos.seq, offset: pos.offset },
                        )?;
                    }
                    SegmentKind::Checkpoint => {
                        durable.install_checkpoint(seq, &bytes).map_err(|e| e.to_string())?;
                        repl.mark_synced();
                        reg.counter(names::REPL_BOOTSTRAPS).incr();
                        send_request(&mut stream, 0, &Request::ReplicaAck { seq, offset: 0 })?;
                    }
                    SegmentKind::Rotate => {
                        durable.rotate_to(seq).map_err(|e| e.to_string())?;
                        reg.counter(names::REPL_ROTATIONS).incr();
                        send_request(&mut stream, 0, &Request::ReplicaAck { seq, offset: 0 })?;
                    }
                }
            }
            Response::Error { code, message, .. } => {
                return Err(format!("primary refused the subscription ({code:?}): {message}"));
            }
            other => return Err(format!("unexpected frame on subscription stream: {other:?}")),
        }
    }
}

/// The `NotPrimary` refusal for a write (or subscribe) hitting a replica:
/// the message is exactly the primary's address, for redirect-following.
pub(crate) fn not_primary(primary: String) -> Response {
    Response::error(ErrorCode::NotPrimary, primary)
}
