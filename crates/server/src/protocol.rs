//! The wire protocol: length-prefixed frames carrying a hand-rolled binary
//! encoding of requests and responses (no external serialization crates).
//!
//! Every frame is `u32` little-endian payload length followed by the
//! payload; every payload starts with a `u64` request id (echoed verbatim in
//! the response) and a `u8` message tag. Integers are little-endian, floats
//! travel as normalized IEEE-754 bits, strings as `u32` length + UTF-8
//! bytes. See `PROTOCOL.md` at the repository root for the full grammar.
//!
//! The primitive and data-level encoders (values, tuples, schemas,
//! relations) live in [`certus::data::codec`] and are shared with the
//! write-ahead log ([`certus::data::wal`]) — the bytes a WAL record holds
//! for a row are exactly the bytes an `Insert` request carried. This module
//! adds the algebra-level encoders (conditions, expressions) and the
//! request/response envelopes.

use certus::algebra::{AggExpr, AggFunc, Condition, Operand, ProjCol, RaExpr};
use certus::data::codec::{
    self, get_relation, get_schema, get_tuple, get_value, put_bool, put_opt, put_relation,
    put_schema, put_str, put_tuple, put_u32, put_u64, put_u8, put_value, Reader,
};
use certus::data::compare::CmpOp;
use certus::data::{Relation, Tuple};
use std::io::{Read, Write};

/// Upper bound on a frame payload (64 MiB): malformed or hostile length
/// prefixes fail fast instead of attempting a giant allocation.
pub(crate) const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// Protocol-level errors: framing violations, unknown tags, truncated or
/// trailing bytes, I/O failures.
#[derive(Debug)]
pub enum WireError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The payload violates the encoding (bad tag, truncation, bad UTF-8…).
    Malformed(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o: {e}"),
            WireError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<codec::CodecError> for WireError {
    fn from(e: codec::CodecError) -> Self {
        WireError::Malformed(e.0)
    }
}

/// Result alias for protocol operations.
pub(crate) type WireResult<T> = Result<T, WireError>;

fn bad(msg: impl Into<String>) -> WireError {
    WireError::Malformed(msg.into())
}

/// Error codes carried by [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request could not be decoded.
    Malformed,
    /// Every execution slot is busy and the waiting line is full; retry
    /// later.
    Overloaded,
    /// The server is at its connection cap.
    TooManyConnections,
    /// An `Execute` referenced a prepared-statement id this connection never
    /// prepared (or already closed).
    UnknownPrepared,
    /// Query planning or execution failed; the message carries the engine's
    /// error text.
    QueryError,
    /// The server is shutting down and no longer accepts work.
    ShuttingDown,
    /// An internal invariant failed server-side.
    Internal,
    /// The request's deadline expired before (or while) it executed. The
    /// work was abandoned at the next morsel boundary; no write happened.
    DeadlineExceeded,
    /// A write (or `Subscribe`) reached a replica. The message is exactly
    /// the primary's address (`host:port`) so clients can follow the
    /// redirect; empty when the replica has not learned it.
    NotPrimary,
}

impl ErrorCode {
    fn tag(self) -> u8 {
        match self {
            ErrorCode::Malformed => 0,
            ErrorCode::Overloaded => 1,
            ErrorCode::TooManyConnections => 2,
            ErrorCode::UnknownPrepared => 3,
            ErrorCode::QueryError => 4,
            ErrorCode::ShuttingDown => 5,
            ErrorCode::Internal => 6,
            ErrorCode::DeadlineExceeded => 7,
            ErrorCode::NotPrimary => 8,
        }
    }

    fn from_tag(t: u8) -> WireResult<Self> {
        Ok(match t {
            0 => ErrorCode::Malformed,
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::TooManyConnections,
            3 => ErrorCode::UnknownPrepared,
            4 => ErrorCode::QueryError,
            5 => ErrorCode::ShuttingDown,
            6 => ErrorCode::Internal,
            7 => ErrorCode::DeadlineExceeded,
            8 => ErrorCode::NotPrimary,
            other => return Err(bad(format!("unknown error code {other}"))),
        })
    }
}

/// Which answers a query request asks for — the wire image of
/// [`certus::Certainty`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireCertainty {
    /// Plain SQL evaluation.
    Plain,
    /// The certain-answer rewriting `Q⁺`.
    CertainPlus,
    /// The possible-answer rewriting `Q★`.
    PossibleStar,
    /// All three plus the certain/possible breakdown.
    Both,
}

impl WireCertainty {
    fn tag(self) -> u8 {
        match self {
            WireCertainty::Plain => 0,
            WireCertainty::CertainPlus => 1,
            WireCertainty::PossibleStar => 2,
            WireCertainty::Both => 3,
        }
    }

    fn from_tag(t: u8) -> WireResult<Self> {
        Ok(match t {
            0 => WireCertainty::Plain,
            1 => WireCertainty::CertainPlus,
            2 => WireCertainty::PossibleStar,
            3 => WireCertainty::Both,
            other => return Err(bad(format!("unknown certainty {other}"))),
        })
    }
}

/// A client→server request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check; answered inline with [`Response::Pong`].
    Ping,
    /// Plan + compile a query server-side; answered with
    /// [`Response::Prepared`] carrying a connection-scoped statement id.
    Prepare {
        /// Which answers to prepare for.
        certainty: WireCertainty,
        /// The query.
        query: RaExpr,
    },
    /// Execute a previously prepared statement.
    Execute {
        /// Statement id from [`Response::Prepared`].
        prepared: u64,
        /// Milliseconds the client is willing to wait, measured from the
        /// moment the server reads the request; `0` means no deadline. Past
        /// it the server abandons the work (a request still waiting for a
        /// slot never runs, a running one cancels at the next morsel
        /// boundary) and answers
        /// [`ErrorCode::DeadlineExceeded`].
        deadline_ms: u64,
    },
    /// One-shot prepare + execute.
    Query {
        /// Which answers to produce.
        certainty: WireCertainty,
        /// The query.
        query: RaExpr,
        /// Deadline in milliseconds from arrival; `0` means none (see
        /// [`Request::Execute::deadline_ms`]).
        deadline_ms: u64,
    },
    /// Append rows to a table; bumps the data version.
    Insert {
        /// Target table.
        table: String,
        /// Rows to append (each must match the table's arity).
        rows: Vec<Tuple>,
    },
    /// Close this connection, after answering every request sent before it.
    Close,
    /// Server + cache counters; answered inline with [`Response::Stats`].
    Stats,
    /// Ask the whole server to shut down gracefully.
    Shutdown,
    /// Replication: turn this connection into a WAL subscription starting
    /// at the sender's durable position (`seq`/`offset`). A replica that
    /// has never synced sends `u64::MAX` for both to request a checkpoint
    /// bootstrap. The server pushes [`Response::WalSegment`] frames under
    /// this request's id for the life of the connection.
    Subscribe {
        /// Checkpoint generation of the subscriber's durable position.
        seq: u64,
        /// Byte offset within that generation's WAL.
        offset: u64,
    },
    /// Replication: the subscriber's new durable (fsync'd) position after
    /// applying segments. Sent on the subscription connection; never
    /// answered.
    ReplicaAck {
        /// Generation of the acknowledged position.
        seq: u64,
        /// Byte offset of the acknowledged position.
        offset: u64,
    },
    /// Operator-initiated failover: stop applying the replication stream,
    /// bump the term, and start accepting writes. Idempotent on a node
    /// that is already primary. Answered with [`Response::Ack`].
    Promote,
    /// Replication status of any node (role, term, durable position,
    /// per-replica lag); answered inline with [`Response::ReplStatus`].
    ReplStatus,
}

impl Request {
    fn tag(&self) -> u8 {
        match self {
            Request::Ping => 0,
            Request::Prepare { .. } => 1,
            Request::Execute { .. } => 2,
            Request::Query { .. } => 3,
            Request::Insert { .. } => 4,
            Request::Close => 5,
            Request::Stats => 6,
            Request::Shutdown => 7,
            Request::Subscribe { .. } => 8,
            Request::ReplicaAck { .. } => 9,
            Request::Promote => 10,
            Request::ReplStatus => 11,
        }
    }
}

/// The body of an answer response, shared by `Query` and `Execute`.
///
/// [`AnswerBody::encode`] is the *canonical* byte form: it covers exactly
/// the certainty and the answer relations/breakdown, so differential
/// harnesses can compare server answers byte-for-byte against local
/// [`certus::Session`] execution regardless of versions or the replan flag.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerBody {
    /// The certainty the query ran under.
    pub certainty: WireCertainty,
    /// Plain SQL answer, when requested.
    pub plain: Option<Relation>,
    /// Certain answers `Q⁺`, when requested.
    pub certain: Option<Relation>,
    /// Possible answers `Q★`, when requested.
    pub possible: Option<Relation>,
    /// For `Both`: (total, certain, false positives) of the SQL answer.
    pub breakdown: Option<(u64, u64, u64)>,
}

impl AnswerBody {
    /// Encode to the canonical byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.push(self.certainty.tag());
        put_opt(&mut out, self.plain.as_ref(), put_relation);
        put_opt(&mut out, self.certain.as_ref(), put_relation);
        put_opt(&mut out, self.possible.as_ref(), put_relation);
        put_opt(&mut out, self.breakdown.as_ref(), |b, &(t, c, f)| {
            put_u64(b, t);
            put_u64(b, c);
            put_u64(b, f);
        });
        out
    }

    fn decode(r: &mut Reader<'_>) -> WireResult<Self> {
        Ok(AnswerBody {
            certainty: WireCertainty::from_tag(r.u8()?)?,
            plain: get_opt(r, |r| Ok(get_relation(r)?))?,
            certain: get_opt(r, |r| Ok(get_relation(r)?))?,
            possible: get_opt(r, |r| Ok(get_relation(r)?))?,
            breakdown: get_opt(r, |r| Ok((r.u64()?, r.u64()?, r.u64()?)))?,
        })
    }
}

/// What a [`Response::WalSegment`] frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Checksummed WAL record bytes of generation `seq` starting at
    /// `offset`. The replica fsyncs them locally, applies them, and acks.
    Records,
    /// A complete checkpoint file for generation `seq` (`offset` is 0). The
    /// replica installs it, replacing all local state — the bootstrap (and
    /// re-sync) path.
    Checkpoint,
    /// The primary folded its WAL into generation `seq`. A replica that has
    /// applied the previous generation in full folds its own snapshot into
    /// the same generation; no bytes travel.
    Rotate,
    /// Position report, no payload: sent once on subscribe (confirming the
    /// stream and carrying the primary's term + durable position).
    Heartbeat,
    /// Clean end of stream: the primary is shutting down and has flushed
    /// everything up to `seq`/`offset`. The replica is caught up and should
    /// reconnect later; no re-bootstrap will be needed.
    Close,
}

impl SegmentKind {
    fn tag(self) -> u8 {
        match self {
            SegmentKind::Records => 0,
            SegmentKind::Checkpoint => 1,
            SegmentKind::Rotate => 2,
            SegmentKind::Heartbeat => 3,
            SegmentKind::Close => 4,
        }
    }

    fn from_tag(t: u8) -> WireResult<Self> {
        Ok(match t {
            0 => SegmentKind::Records,
            1 => SegmentKind::Checkpoint,
            2 => SegmentKind::Rotate,
            3 => SegmentKind::Heartbeat,
            4 => SegmentKind::Close,
            other => return Err(bad(format!("unknown segment kind {other}"))),
        })
    }
}

/// A node's replication role, as reported by [`Response::ReplStatus`].
/// Standalone durable nodes report `Primary` (they accept writes and
/// subscribers); only an un-promoted replica reports `Replica`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplRole {
    /// Accepts writes and WAL subscriptions.
    Primary,
    /// Applies a primary's stream; refuses writes with
    /// [`ErrorCode::NotPrimary`].
    Replica,
}

impl ReplRole {
    fn tag(self) -> u8 {
        match self {
            ReplRole::Primary => 0,
            ReplRole::Replica => 1,
        }
    }

    fn from_tag(t: u8) -> WireResult<Self> {
        Ok(match t {
            0 => ReplRole::Primary,
            1 => ReplRole::Replica,
            other => return Err(bad(format!("unknown replication role {other}"))),
        })
    }
}

/// Per-replica progress reported by a primary in [`Response::ReplStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaLag {
    /// The subscriber's peer address.
    pub addr: String,
    /// Generation of the last position the replica acknowledged.
    pub acked_seq: u64,
    /// Offset of the last position the replica acknowledged.
    pub acked_offset: u64,
    /// Durable bytes the replica has not yet acknowledged. Within one
    /// generation this is exact; across a fold it counts the live
    /// generation's bytes (the replica also owes a rotate or re-bootstrap).
    pub lag_bytes: u64,
}

/// The body of [`Response::ReplStatus`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplStatusBody {
    /// This node's current role.
    pub role: ReplRole,
    /// The replication term: starts at the configured initial term, bumped
    /// by every `Promote`. Operator-managed — see PROTOCOL.md for the
    /// (consensus-free) failover model.
    pub term: u64,
    /// Generation of this node's durable position.
    pub seq: u64,
    /// Offset of this node's durable position.
    pub offset: u64,
    /// Replication mode: 0 = replication not configured, 1 = async,
    /// 2 = sync (see `quorum`).
    pub mode: u8,
    /// In sync mode, how many replica acks an `Insert` waits for.
    pub quorum: u32,
    /// For replicas: the primary address this node applies from.
    pub primary_addr: Option<String>,
    /// For primaries: progress of every live subscriber.
    pub replicas: Vec<ReplicaLag>,
}

/// Counters reported by [`Response::Stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerStats {
    /// Requests completed (all types).
    pub requests: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Always 0: writes never invalidate a prepared statement.
    pub stale_replans: u64,
    /// Currently open connections.
    pub connections: u64,
    /// Currently pinned snapshots.
    pub live_pins: u64,
    /// Requests currently waiting for an execution slot.
    pub queue_depth: u64,
    /// Shared plan-cache hits.
    pub cache_hits: u64,
    /// Shared plan-cache misses.
    pub cache_misses: u64,
    /// Entries currently in the shared plan cache.
    pub cache_entries: u64,
    /// Data version of the current snapshot.
    pub epoch: u64,
}

/// A server→client response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Liveness answer carrying the current data version.
    Pong {
        /// Data version of the current snapshot.
        epoch: u64,
    },
    /// A statement was prepared under this connection-scoped id.
    Prepared {
        /// Statement id for [`Request::Execute`].
        prepared: u64,
        /// Schema epoch the statement was planned at.
        epoch: u64,
    },
    /// Answers to a `Query` or `Execute` request.
    Answers {
        /// The canonical answer payload.
        body: AnswerBody,
        /// Always `false`: prepared statements survive writes, so none is
        /// re-prepared. Kept on the wire until the benchmark stops reading
        /// it; not part of the canonical [`AnswerBody::encode`] bytes.
        reprepared: bool,
    },
    /// A write (or close/shutdown) was applied.
    Ack {
        /// Data version after the operation.
        epoch: u64,
    },
    /// The request failed; the connection stays usable (except for
    /// [`ErrorCode::TooManyConnections`] / [`ErrorCode::ShuttingDown`]).
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
        /// For [`ErrorCode::Overloaded`]: how long (milliseconds) the
        /// server suggests waiting before a retry, derived from how many
        /// requests wait for a slot. `0` means no hint; other codes always
        /// send `0`.
        retry_after_ms: u64,
    },
    /// Server counters.
    Stats(ServerStats),
    /// One pushed replication frame on a subscription (see [`SegmentKind`]
    /// for what each kind carries). Always sent under the `Subscribe`
    /// request's id.
    WalSegment {
        /// The sender's current term (replicas adopt the maximum seen).
        term: u64,
        /// What this frame carries.
        kind: SegmentKind,
        /// Generation the frame refers to.
        seq: u64,
        /// Byte offset the frame refers to (kind-dependent; see
        /// [`SegmentKind`]).
        offset: u64,
        /// Payload bytes (records or a checkpoint file; empty otherwise).
        bytes: Vec<u8>,
    },
    /// Replication status of this node.
    ReplStatus(ReplStatusBody),
}

impl Response {
    /// An [`Response::Error`] without a retry hint.
    pub fn error(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::error_after(code, message, 0)
    }

    /// An [`Response::Error`] suggesting a retry after `retry_after_ms`.
    pub(crate) fn error_after(
        code: ErrorCode,
        message: impl Into<String>,
        retry_after_ms: u64,
    ) -> Response {
        Response::Error { code, message: message.into(), retry_after_ms }
    }

    fn tag(&self) -> u8 {
        match self {
            Response::Pong { .. } => 0,
            Response::Prepared { .. } => 1,
            Response::Answers { .. } => 2,
            Response::Ack { .. } => 3,
            Response::Error { .. } => 4,
            Response::Stats(_) => 5,
            Response::WalSegment { .. } => 6,
            Response::ReplStatus(_) => 7,
        }
    }
}

// ---------------------------------------------------------------------------
// Algebra-level encoders/decoders. Primitives and data-level forms (values,
// tuples, schemas, relations) come from `certus::data::codec`; codec errors
// convert into `WireError::Malformed` at the `?` sites below.

/// Wire-level optional: like [`codec::get_opt`] but over closures that may
/// fail with algebra-level [`WireError`]s.
fn get_opt<T>(
    r: &mut Reader<'_>,
    get: impl FnOnce(&mut Reader<'_>) -> WireResult<T>,
) -> WireResult<Option<T>> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(get(r)?)),
        other => Err(bad(format!("bad option byte {other}"))),
    }
}

fn put_cmp_op(out: &mut Vec<u8>, op: CmpOp) {
    put_u8(
        out,
        match op {
            CmpOp::Eq => 0,
            CmpOp::Neq => 1,
            CmpOp::Lt => 2,
            CmpOp::Le => 3,
            CmpOp::Gt => 4,
            CmpOp::Ge => 5,
        },
    );
}

fn get_cmp_op(r: &mut Reader<'_>) -> WireResult<CmpOp> {
    Ok(match r.u8()? {
        0 => CmpOp::Eq,
        1 => CmpOp::Neq,
        2 => CmpOp::Lt,
        3 => CmpOp::Le,
        4 => CmpOp::Gt,
        5 => CmpOp::Ge,
        other => return Err(bad(format!("unknown cmp op {other}"))),
    })
}

fn put_operand(out: &mut Vec<u8>, op: &Operand) {
    match op {
        Operand::Col(c) => {
            put_u8(out, 0);
            put_str(out, c);
        }
        Operand::Const(v) => {
            put_u8(out, 1);
            put_value(out, v);
        }
        Operand::Scalar(q) => {
            put_u8(out, 2);
            put_expr(out, q);
        }
    }
}

fn get_operand(r: &mut Reader<'_>) -> WireResult<Operand> {
    Ok(match r.u8()? {
        0 => Operand::Col(r.str()?),
        1 => Operand::Const(get_value(r)?),
        2 => Operand::Scalar(Box::new(get_expr(r)?)),
        other => return Err(bad(format!("unknown operand tag {other}"))),
    })
}

fn put_condition(out: &mut Vec<u8>, c: &Condition) {
    match c {
        Condition::True => put_u8(out, 0),
        Condition::False => put_u8(out, 1),
        Condition::Cmp { left, op, right } => {
            put_u8(out, 2);
            put_operand(out, left);
            put_cmp_op(out, *op);
            put_operand(out, right);
        }
        Condition::IsNull(op) => {
            put_u8(out, 3);
            put_operand(out, op);
        }
        Condition::IsNotNull(op) => {
            put_u8(out, 4);
            put_operand(out, op);
        }
        Condition::Like { expr, pattern, negated } => {
            put_u8(out, 5);
            put_operand(out, expr);
            put_str(out, pattern);
            put_bool(out, *negated);
        }
        Condition::InList { expr, list, negated } => {
            put_u8(out, 6);
            put_operand(out, expr);
            put_u32(out, list.len() as u32);
            for v in list {
                put_value(out, v);
            }
            put_bool(out, *negated);
        }
        Condition::And(a, b) => {
            put_u8(out, 7);
            put_condition(out, a);
            put_condition(out, b);
        }
        Condition::Or(a, b) => {
            put_u8(out, 8);
            put_condition(out, a);
            put_condition(out, b);
        }
        Condition::Not(a) => {
            put_u8(out, 9);
            put_condition(out, a);
        }
    }
}

fn get_condition(r: &mut Reader<'_>) -> WireResult<Condition> {
    Ok(match r.u8()? {
        0 => Condition::True,
        1 => Condition::False,
        2 => Condition::Cmp { left: get_operand(r)?, op: get_cmp_op(r)?, right: get_operand(r)? },
        3 => Condition::IsNull(get_operand(r)?),
        4 => Condition::IsNotNull(get_operand(r)?),
        5 => Condition::Like { expr: get_operand(r)?, pattern: r.str()?, negated: r.bool()? },
        6 => {
            let expr = get_operand(r)?;
            let n = r.len()?;
            let mut list = Vec::with_capacity(n);
            for _ in 0..n {
                list.push(get_value(r)?);
            }
            let negated = r.bool()?;
            Condition::InList { expr, list, negated }
        }
        7 => Condition::And(Box::new(get_condition(r)?), Box::new(get_condition(r)?)),
        8 => Condition::Or(Box::new(get_condition(r)?), Box::new(get_condition(r)?)),
        9 => Condition::Not(Box::new(get_condition(r)?)),
        other => return Err(bad(format!("unknown condition tag {other}"))),
    })
}

fn put_agg_func(out: &mut Vec<u8>, f: AggFunc) {
    put_u8(
        out,
        match f {
            AggFunc::CountStar => 0,
            AggFunc::Count => 1,
            AggFunc::Sum => 2,
            AggFunc::Avg => 3,
            AggFunc::Min => 4,
            AggFunc::Max => 5,
        },
    );
}

fn get_agg_func(r: &mut Reader<'_>) -> WireResult<AggFunc> {
    Ok(match r.u8()? {
        0 => AggFunc::CountStar,
        1 => AggFunc::Count,
        2 => AggFunc::Sum,
        3 => AggFunc::Avg,
        4 => AggFunc::Min,
        5 => AggFunc::Max,
        other => return Err(bad(format!("unknown aggregate function {other}"))),
    })
}

fn put_expr(out: &mut Vec<u8>, e: &RaExpr) {
    match e {
        RaExpr::Relation { name, alias } => {
            put_u8(out, 0);
            put_str(out, name);
            put_opt(out, alias.as_ref(), |b, a| put_str(b, a));
        }
        RaExpr::Values { schema, rows } => {
            put_u8(out, 1);
            put_schema(out, schema);
            put_u32(out, rows.len() as u32);
            for t in rows {
                put_tuple(out, t);
            }
        }
        RaExpr::Select { input, condition } => {
            put_u8(out, 2);
            put_expr(out, input);
            put_condition(out, condition);
        }
        RaExpr::Project { input, columns } => {
            put_u8(out, 3);
            put_expr(out, input);
            put_u32(out, columns.len() as u32);
            for c in columns {
                put_str(out, &c.column);
                put_opt(out, c.alias.as_ref(), |b, a| put_str(b, a));
            }
        }
        RaExpr::Product { left, right } => {
            put_u8(out, 4);
            put_expr(out, left);
            put_expr(out, right);
        }
        RaExpr::Join { left, right, condition } => {
            put_u8(out, 5);
            put_expr(out, left);
            put_expr(out, right);
            put_condition(out, condition);
        }
        RaExpr::Union { left, right } => {
            put_u8(out, 6);
            put_expr(out, left);
            put_expr(out, right);
        }
        RaExpr::Intersect { left, right } => {
            put_u8(out, 7);
            put_expr(out, left);
            put_expr(out, right);
        }
        RaExpr::Difference { left, right } => {
            put_u8(out, 8);
            put_expr(out, left);
            put_expr(out, right);
        }
        RaExpr::SemiJoin { left, right, condition } => {
            put_u8(out, 9);
            put_expr(out, left);
            put_expr(out, right);
            put_condition(out, condition);
        }
        RaExpr::AntiJoin { left, right, condition } => {
            put_u8(out, 10);
            put_expr(out, left);
            put_expr(out, right);
            put_condition(out, condition);
        }
        RaExpr::UnifySemiJoin { left, right } => {
            put_u8(out, 11);
            put_expr(out, left);
            put_expr(out, right);
        }
        RaExpr::UnifyAntiSemiJoin { left, right } => {
            put_u8(out, 12);
            put_expr(out, left);
            put_expr(out, right);
        }
        RaExpr::Rename { input, columns } => {
            put_u8(out, 14);
            put_expr(out, input);
            put_u32(out, columns.len() as u32);
            for c in columns {
                put_str(out, c);
            }
        }
        RaExpr::Distinct { input } => {
            put_u8(out, 15);
            put_expr(out, input);
        }
        RaExpr::Aggregate { input, group_by, aggregates } => {
            put_u8(out, 16);
            put_expr(out, input);
            put_u32(out, group_by.len() as u32);
            for g in group_by {
                put_str(out, g);
            }
            put_u32(out, aggregates.len() as u32);
            for a in aggregates {
                put_agg_func(out, a.func);
                put_opt(out, a.column.as_ref(), |b, c| put_str(b, c));
                put_str(out, &a.alias);
            }
        }
    }
}

fn get_expr(r: &mut Reader<'_>) -> WireResult<RaExpr> {
    Ok(match r.u8()? {
        0 => RaExpr::Relation { name: r.str()?, alias: get_opt(r, |r| Ok(r.str()?))? },
        1 => {
            let schema = get_schema(r)?;
            let n = r.len()?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(get_tuple(r)?);
            }
            RaExpr::Values { schema, rows }
        }
        2 => RaExpr::Select { input: Box::new(get_expr(r)?), condition: get_condition(r)? },
        3 => {
            let input = Box::new(get_expr(r)?);
            let n = r.len()?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                let column = r.str()?;
                let alias = get_opt(r, |r| Ok(r.str()?))?;
                columns.push(ProjCol { column, alias });
            }
            RaExpr::Project { input, columns }
        }
        4 => RaExpr::Product { left: Box::new(get_expr(r)?), right: Box::new(get_expr(r)?) },
        5 => RaExpr::Join {
            left: Box::new(get_expr(r)?),
            right: Box::new(get_expr(r)?),
            condition: get_condition(r)?,
        },
        6 => RaExpr::Union { left: Box::new(get_expr(r)?), right: Box::new(get_expr(r)?) },
        7 => RaExpr::Intersect { left: Box::new(get_expr(r)?), right: Box::new(get_expr(r)?) },
        8 => RaExpr::Difference { left: Box::new(get_expr(r)?), right: Box::new(get_expr(r)?) },
        9 => RaExpr::SemiJoin {
            left: Box::new(get_expr(r)?),
            right: Box::new(get_expr(r)?),
            condition: get_condition(r)?,
        },
        10 => RaExpr::AntiJoin {
            left: Box::new(get_expr(r)?),
            right: Box::new(get_expr(r)?),
            condition: get_condition(r)?,
        },
        11 => RaExpr::UnifySemiJoin { left: Box::new(get_expr(r)?), right: Box::new(get_expr(r)?) },
        12 => RaExpr::UnifyAntiSemiJoin {
            left: Box::new(get_expr(r)?),
            right: Box::new(get_expr(r)?),
        },
        14 => {
            let input = Box::new(get_expr(r)?);
            let n = r.len()?;
            let mut columns = Vec::with_capacity(n);
            for _ in 0..n {
                columns.push(r.str()?);
            }
            RaExpr::Rename { input, columns }
        }
        15 => RaExpr::Distinct { input: Box::new(get_expr(r)?) },
        16 => {
            let input = Box::new(get_expr(r)?);
            let n = r.len()?;
            let mut group_by = Vec::with_capacity(n);
            for _ in 0..n {
                group_by.push(r.str()?);
            }
            let n = r.len()?;
            let mut aggregates = Vec::with_capacity(n);
            for _ in 0..n {
                let func = get_agg_func(r)?;
                let column = get_opt(r, |r| Ok(r.str()?))?;
                let alias = r.str()?;
                aggregates.push(AggExpr { func, column, alias });
            }
            RaExpr::Aggregate { input, group_by, aggregates }
        }
        other => return Err(bad(format!("unknown expression tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// Message encode/decode and framing.

/// Encode a request payload (request id + tag + body), without the length
/// prefix.
pub fn encode_request(request_id: u64, req: &Request) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, request_id);
    put_u8(&mut out, req.tag());
    match req {
        Request::Ping
        | Request::Close
        | Request::Stats
        | Request::Shutdown
        | Request::Promote
        | Request::ReplStatus => {}
        Request::Subscribe { seq, offset } | Request::ReplicaAck { seq, offset } => {
            put_u64(&mut out, *seq);
            put_u64(&mut out, *offset);
        }
        Request::Prepare { certainty, query } => {
            put_u8(&mut out, certainty.tag());
            put_expr(&mut out, query);
        }
        Request::Query { certainty, query, deadline_ms } => {
            put_u8(&mut out, certainty.tag());
            put_expr(&mut out, query);
            put_u64(&mut out, *deadline_ms);
        }
        Request::Execute { prepared, deadline_ms } => {
            put_u64(&mut out, *prepared);
            put_u64(&mut out, *deadline_ms);
        }
        Request::Insert { table, rows } => {
            put_str(&mut out, table);
            put_u32(&mut out, rows.len() as u32);
            for t in rows {
                put_tuple(&mut out, t);
            }
        }
    }
    out
}

/// Decode a request payload produced by [`encode_request`].
pub fn decode_request(payload: &[u8]) -> WireResult<(u64, Request)> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let tag = r.u8()?;
    let req = match tag {
        0 => Request::Ping,
        1 | 3 => {
            let certainty = WireCertainty::from_tag(r.u8()?)?;
            let query = get_expr(&mut r)?;
            if tag == 1 {
                Request::Prepare { certainty, query }
            } else {
                Request::Query { certainty, query, deadline_ms: r.u64()? }
            }
        }
        2 => Request::Execute { prepared: r.u64()?, deadline_ms: r.u64()? },
        4 => {
            let table = r.str()?;
            let n = r.len()?;
            let mut rows = Vec::with_capacity(n);
            for _ in 0..n {
                rows.push(get_tuple(&mut r)?);
            }
            Request::Insert { table, rows }
        }
        5 => Request::Close,
        6 => Request::Stats,
        7 => Request::Shutdown,
        8 => Request::Subscribe { seq: r.u64()?, offset: r.u64()? },
        9 => Request::ReplicaAck { seq: r.u64()?, offset: r.u64()? },
        10 => Request::Promote,
        11 => Request::ReplStatus,
        other => return Err(bad(format!("unknown request tag {other}"))),
    };
    r.finish()?;
    Ok((id, req))
}

/// Encode a response payload (request id + tag + body), without the length
/// prefix.
pub fn encode_response(request_id: u64, resp: &Response) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, request_id);
    put_u8(&mut out, resp.tag());
    match resp {
        Response::Pong { epoch } | Response::Ack { epoch } => put_u64(&mut out, *epoch),
        Response::Prepared { prepared, epoch } => {
            put_u64(&mut out, *prepared);
            put_u64(&mut out, *epoch);
        }
        Response::Answers { body, reprepared } => {
            out.extend_from_slice(&body.encode());
            put_bool(&mut out, *reprepared);
        }
        Response::Error { code, message, retry_after_ms } => {
            put_u8(&mut out, code.tag());
            put_str(&mut out, message);
            put_u64(&mut out, *retry_after_ms);
        }
        Response::Stats(s) => {
            for v in [
                s.requests,
                s.rejected,
                s.stale_replans,
                s.connections,
                s.live_pins,
                s.queue_depth,
                s.cache_hits,
                s.cache_misses,
                s.cache_entries,
                s.epoch,
            ] {
                put_u64(&mut out, v);
            }
        }
        Response::WalSegment { term, kind, seq, offset, bytes } => {
            put_u64(&mut out, *term);
            put_u8(&mut out, kind.tag());
            put_u64(&mut out, *seq);
            put_u64(&mut out, *offset);
            put_u32(&mut out, bytes.len() as u32);
            out.extend_from_slice(bytes);
        }
        Response::ReplStatus(s) => {
            put_u8(&mut out, s.role.tag());
            put_u64(&mut out, s.term);
            put_u64(&mut out, s.seq);
            put_u64(&mut out, s.offset);
            put_u8(&mut out, s.mode);
            put_u32(&mut out, s.quorum);
            put_opt(&mut out, s.primary_addr.as_ref(), |b, a| put_str(b, a));
            put_u32(&mut out, s.replicas.len() as u32);
            for rep in &s.replicas {
                put_str(&mut out, &rep.addr);
                put_u64(&mut out, rep.acked_seq);
                put_u64(&mut out, rep.acked_offset);
                put_u64(&mut out, rep.lag_bytes);
            }
        }
    }
    out
}

/// Decode a response payload produced by [`encode_response`].
pub fn decode_response(payload: &[u8]) -> WireResult<(u64, Response)> {
    let mut r = Reader::new(payload);
    let id = r.u64()?;
    let resp = match r.u8()? {
        0 => Response::Pong { epoch: r.u64()? },
        1 => Response::Prepared { prepared: r.u64()?, epoch: r.u64()? },
        2 => Response::Answers { body: AnswerBody::decode(&mut r)?, reprepared: r.bool()? },
        3 => Response::Ack { epoch: r.u64()? },
        4 => Response::Error {
            code: ErrorCode::from_tag(r.u8()?)?,
            message: r.str()?,
            retry_after_ms: r.u64()?,
        },
        5 => Response::Stats(ServerStats {
            requests: r.u64()?,
            rejected: r.u64()?,
            stale_replans: r.u64()?,
            connections: r.u64()?,
            live_pins: r.u64()?,
            queue_depth: r.u64()?,
            cache_hits: r.u64()?,
            cache_misses: r.u64()?,
            cache_entries: r.u64()?,
            epoch: r.u64()?,
        }),
        6 => {
            let term = r.u64()?;
            let kind = SegmentKind::from_tag(r.u8()?)?;
            let seq = r.u64()?;
            let offset = r.u64()?;
            let n = r.len()?;
            let bytes = r.take(n)?.to_vec();
            Response::WalSegment { term, kind, seq, offset, bytes }
        }
        7 => {
            let role = ReplRole::from_tag(r.u8()?)?;
            let term = r.u64()?;
            let seq = r.u64()?;
            let offset = r.u64()?;
            let mode = r.u8()?;
            let quorum = r.u32()?;
            let primary_addr = get_opt(&mut r, |r| Ok(r.str()?))?;
            let n = r.len()?;
            let mut replicas = Vec::with_capacity(n);
            for _ in 0..n {
                replicas.push(ReplicaLag {
                    addr: r.str()?,
                    acked_seq: r.u64()?,
                    acked_offset: r.u64()?,
                    lag_bytes: r.u64()?,
                });
            }
            Response::ReplStatus(ReplStatusBody {
                role,
                term,
                seq,
                offset,
                mode,
                quorum,
                primary_addr,
                replicas,
            })
        }
        other => return Err(bad(format!("unknown response tag {other}"))),
    };
    r.finish()?;
    Ok((id, resp))
}

/// Write one frame: `u32` LE payload length, then the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> WireResult<()> {
    if payload.len() as u64 > MAX_FRAME_LEN as u64 {
        return Err(bad(format!("frame of {} bytes exceeds MAX_FRAME_LEN", payload.len())));
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, returning its payload. Propagates I/O errors (including
/// timeouts) untouched so pollers can distinguish "no data yet" from EOF.
pub fn read_frame(r: &mut impl Read) -> WireResult<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME_LEN {
        return Err(bad(format!("frame length {len} exceeds MAX_FRAME_LEN")));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus::algebra::builder::eq;
    use certus::data::null::NullId;
    use certus::data::{Attribute, Schema, Value, ValueType};

    fn sample_exprs() -> Vec<RaExpr> {
        let base = RaExpr::relation("r");
        let joined = RaExpr::relation_as("l", "l1").join(
            RaExpr::relation("s"),
            eq("a", "b").and(Condition::Not(Box::new(Condition::Like {
                expr: Operand::Col("c".into()),
                pattern: "%x_".into(),
                negated: false,
            }))),
        );
        let values = RaExpr::Values {
            schema: Schema::new(vec![
                Attribute::new("x", ValueType::Int),
                Attribute::not_null("y", ValueType::Str),
            ]),
            rows: vec![
                Tuple::new(vec![Value::Int(1), Value::str("a")]),
                Tuple::new(vec![Value::Null(NullId(3)), Value::str("b")]),
            ],
        };
        let agg = RaExpr::Aggregate {
            input: Box::new(base.clone()),
            group_by: vec!["a".into()],
            aggregates: vec![AggExpr::count_star("n"), AggExpr::new(AggFunc::Sum, "b", "total")],
        };
        let scalar = RaExpr::relation("t").select(Condition::Cmp {
            left: Operand::Col("v".into()),
            op: CmpOp::Ge,
            right: Operand::Scalar(Box::new(values.clone())),
        });
        let inlist = RaExpr::relation("u").select(Condition::InList {
            expr: Operand::Col("k".into()),
            list: vec![Value::Int(1), Value::Float(2.5), Value::Date(19000), Value::Bool(true)],
            negated: true,
        });
        vec![
            base.clone(),
            joined,
            values,
            agg,
            scalar,
            inlist,
            RaExpr::Rename { input: Box::new(base.clone()), columns: vec!["p".into()] },
            RaExpr::Distinct { input: Box::new(base.clone()) },
            RaExpr::UnifySemiJoin {
                left: Box::new(base.clone()),
                right: Box::new(RaExpr::relation("s")),
            },
            RaExpr::UnifyAntiSemiJoin {
                left: Box::new(base.clone()),
                right: Box::new(RaExpr::relation("s")),
            },
            base.clone().union(RaExpr::relation("s")),
            base.clone().intersect(RaExpr::relation("s")),
            base.clone().difference(RaExpr::relation("s")),
            base.clone().product(RaExpr::relation("s")),
            base.clone().semi_join(RaExpr::relation("s"), eq("a", "b")),
            base.anti_join(RaExpr::relation("s"), eq("a", "b")),
        ]
    }

    #[test]
    fn requests_round_trip() {
        let mut requests = vec![
            Request::Ping,
            Request::Close,
            Request::Stats,
            Request::Shutdown,
            Request::Execute { prepared: 42, deadline_ms: 0 },
            Request::Execute { prepared: 42, deadline_ms: 2_500 },
            Request::Insert {
                table: "r".into(),
                rows: vec![Tuple::new(vec![Value::Int(1), Value::Null(NullId(9))])],
            },
            Request::Subscribe { seq: 3, offset: 4096 },
            Request::Subscribe { seq: u64::MAX, offset: u64::MAX },
            Request::ReplicaAck { seq: 3, offset: 8192 },
            Request::Promote,
            Request::ReplStatus,
        ];
        for (i, q) in sample_exprs().into_iter().enumerate() {
            let certainty = match i % 4 {
                0 => WireCertainty::Plain,
                1 => WireCertainty::CertainPlus,
                2 => WireCertainty::PossibleStar,
                _ => WireCertainty::Both,
            };
            requests.push(Request::Prepare { certainty, query: q.clone() });
            requests.push(Request::Query { certainty, query: q, deadline_ms: i as u64 * 100 });
        }
        for (i, req) in requests.into_iter().enumerate() {
            let bytes = encode_request(i as u64, &req);
            let (id, back) = decode_request(&bytes).expect("request decodes");
            assert_eq!(id, i as u64);
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let rel = Relation::from_parts(
            Schema::new(vec![Attribute::new("a", ValueType::Int)]).shared(),
            vec![Tuple::new(vec![Value::Int(7)]), Tuple::new(vec![Value::Null(NullId(2))])],
        );
        let responses = vec![
            Response::Pong { epoch: 3 },
            Response::Prepared { prepared: 5, epoch: 3 },
            Response::Ack { epoch: 4 },
            Response::Error {
                code: ErrorCode::Overloaded,
                message: "queue full".into(),
                retry_after_ms: 40,
            },
            Response::Error {
                code: ErrorCode::DeadlineExceeded,
                message: "deadline of 10ms expired".into(),
                retry_after_ms: 0,
            },
            Response::Stats(ServerStats { requests: 10, epoch: 2, ..Default::default() }),
            Response::Error {
                code: ErrorCode::NotPrimary,
                message: "127.0.0.1:7878".into(),
                retry_after_ms: 0,
            },
            Response::WalSegment {
                term: 2,
                kind: SegmentKind::Records,
                seq: 1,
                offset: 64,
                bytes: vec![1, 2, 3, 255, 0, 7],
            },
            Response::WalSegment {
                term: 1,
                kind: SegmentKind::Heartbeat,
                seq: 0,
                offset: 0,
                bytes: Vec::new(),
            },
            Response::WalSegment {
                term: 3,
                kind: SegmentKind::Close,
                seq: 5,
                offset: 1024,
                bytes: Vec::new(),
            },
            Response::ReplStatus(ReplStatusBody {
                role: ReplRole::Primary,
                term: 4,
                seq: 2,
                offset: 512,
                mode: 2,
                quorum: 1,
                primary_addr: None,
                replicas: vec![ReplicaLag {
                    addr: "127.0.0.1:9000".into(),
                    acked_seq: 2,
                    acked_offset: 256,
                    lag_bytes: 256,
                }],
            }),
            Response::ReplStatus(ReplStatusBody {
                role: ReplRole::Replica,
                term: 1,
                seq: 0,
                offset: 0,
                mode: 1,
                quorum: 0,
                primary_addr: Some("127.0.0.1:7878".into()),
                replicas: Vec::new(),
            }),
            Response::Answers {
                body: AnswerBody {
                    certainty: WireCertainty::Both,
                    plain: Some(rel.clone()),
                    certain: Some(rel.clone()),
                    possible: Some(rel),
                    breakdown: Some((2, 1, 1)),
                },
                reprepared: true,
            },
        ];
        for (i, resp) in responses.into_iter().enumerate() {
            let bytes = encode_response(i as u64, &resp);
            let (id, back) = decode_response(&bytes).expect("response decodes");
            assert_eq!(id, i as u64);
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn answer_body_bytes_exclude_the_replan_flag() {
        let body = AnswerBody {
            certainty: WireCertainty::Plain,
            plain: Some(Relation::from_parts(
                Schema::new(vec![Attribute::new("a", ValueType::Int)]).shared(),
                vec![Tuple::new(vec![Value::Int(1)])],
            )),
            certain: None,
            possible: None,
            breakdown: None,
        };
        let fresh =
            encode_response(1, &Response::Answers { body: body.clone(), reprepared: false });
        let replanned =
            encode_response(1, &Response::Answers { body: body.clone(), reprepared: true });
        assert_ne!(fresh, replanned, "the flag is on the wire…");
        let (_, a) = decode_response(&fresh).unwrap();
        let (_, b) = decode_response(&replanned).unwrap();
        match (a, b) {
            (Response::Answers { body: ba, .. }, Response::Answers { body: bb, .. }) => {
                assert_eq!(ba.encode(), bb.encode(), "…but not in the canonical body");
                assert_eq!(ba.encode(), body.encode());
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn malformed_payloads_are_rejected_not_panicked() {
        // Truncations of a valid request must all fail cleanly.
        let good = encode_request(
            7,
            &Request::Query {
                certainty: WireCertainty::Both,
                query: sample_exprs().remove(1),
                deadline_ms: 250,
            },
        );
        for cut in 0..good.len() {
            assert!(decode_request(&good[..cut]).is_err(), "truncation at {cut}");
        }
        // Trailing garbage is rejected too.
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_request(&trailing).is_err());
        // Unknown tags and hostile lengths.
        assert!(decode_request(&[0; 8]).is_err(), "an id alone lacks a tag");
        let mut hostile = encode_request(1, &Request::Ping);
        hostile[8] = 99;
        assert!(decode_request(&hostile).is_err());
        // A query under the retired division tag 13, laid out as its binary
        // neighbours are (tag, left, right), is refused.
        let query = |query: RaExpr| {
            let certainty = WireCertainty::CertainPlus;
            encode_request(1, &Request::Query { certainty, query, deadline_ms: 0 })
        };
        let scan = || RaExpr::relation("r");
        let mut retired = query(scan().union(scan()));
        let tag = retired.iter().zip(&query(scan())).position(|(a, b)| a != b).unwrap();
        retired[tag] = 13;
        assert!(decode_request(&retired).is_err());
        retired[tag] = 6;
        assert!(decode_request(&retired).is_ok());
    }

    #[test]
    fn malformed_replication_frames_are_rejected_not_panicked() {
        let seg = encode_response(
            9,
            &Response::WalSegment {
                term: 1,
                kind: SegmentKind::Records,
                seq: 0,
                offset: 16,
                bytes: vec![7; 32],
            },
        );
        for cut in 0..seg.len() {
            assert!(decode_response(&seg[..cut]).is_err(), "segment truncation at {cut}");
        }
        let status = encode_response(
            9,
            &Response::ReplStatus(ReplStatusBody {
                role: ReplRole::Primary,
                term: 1,
                seq: 0,
                offset: 0,
                mode: 2,
                quorum: 1,
                primary_addr: None,
                replicas: vec![ReplicaLag {
                    addr: "a:1".into(),
                    acked_seq: 0,
                    acked_offset: 0,
                    lag_bytes: 0,
                }],
            }),
        );
        for cut in 0..status.len() {
            assert!(decode_response(&status[..cut]).is_err(), "status truncation at {cut}");
        }
        // Unknown segment kinds and roles fail cleanly.
        let mut bad_kind = seg.clone();
        bad_kind[8 + 1 + 8] = 99; // id + tag + term, then the kind byte
        assert!(decode_response(&bad_kind).is_err());
        let mut bad_role = status.clone();
        bad_role[8 + 1] = 99; // id + tag, then the role byte
        assert!(decode_response(&bad_role).is_err());
    }

    #[test]
    fn frames_round_trip_and_cap_length() {
        let payload = encode_request(1, &Request::Ping);
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap(), payload);
        // A hostile length prefix fails before allocating.
        let mut hostile = std::io::Cursor::new((MAX_FRAME_LEN + 1).to_le_bytes().to_vec());
        assert!(matches!(read_frame(&mut hostile), Err(WireError::Malformed(_))));
    }
}
