//! `certus-client`: a blocking TCP client for the certus query server.
//!
//! Two usage styles:
//!
//! * **Closed loop** — the convenience methods ([`Client::query`],
//!   [`Client::execute`], …) send one request and block for its response.
//! * **Open loop / pipelined** — [`Client::send_query`] (and friends) write
//!   a request and return its id immediately; [`Client::recv`] pulls the
//!   next response off the wire. The server runs one connection's requests
//!   in the order sent and answers them in that order, so pipelining saves
//!   round trips, not execution time; parallelism comes from connections.
//!
//! Closed-loop calls can retry transparently under a [`RetryPolicy`]:
//! `Overloaded` responses (shed before execution, so always safe to resend)
//! and read timeouts on idempotent requests are retried with exponential
//! backoff, seeded jitter, and the server's retry-after hint honored as a
//! floor. Inserts are **never** retried on a timeout — the server may have
//! durably applied the write even though the ack was lost.
//!
//! ```no_run
//! use certus_server::client::Client;
//! use certus_server::protocol::WireCertainty;
//! use certus_server::RaExpr;
//!
//! let mut client = Client::connect("127.0.0.1:7878").unwrap();
//! let answers = client
//!     .query(WireCertainty::CertainPlus, &RaExpr::relation("orders"))
//!     .unwrap();
//! println!("{} certain answers", answers.body.certain.as_ref().unwrap().len());
//! client.close().unwrap();
//! ```

use crate::protocol::{
    decode_response, encode_request, read_frame, write_frame, AnswerBody, ErrorCode, ReplRole,
    ReplStatusBody, Request, Response, ServerStats, WireCertainty, WireError,
};
use certus::algebra::RaExpr;
use certus::data::Tuple;
use certus::obs::metrics::registry;
use certus::obs::names;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::io::ErrorKind;
use std::net::{TcpStream, ToSocketAddrs};
use std::thread;
use std::time::Duration;

/// An error surfaced by the client: either a transport/encoding failure or
/// an error response from the server.
#[derive(Debug)]
pub enum ClientError {
    /// The wire layer failed (I/O or malformed frame).
    Wire(WireError),
    /// The server answered with an error response.
    Server {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail from the server.
        message: String,
    },
    /// The server answered with a response type the call did not expect.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Server { code, message } => write!(f, "server error {code:?}: {message}"),
            ClientError::Unexpected(m) => write!(f, "unexpected response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Result alias for client calls.
pub(crate) type ClientResult<T> = Result<T, ClientError>;

/// Retry behavior for closed-loop calls.
///
/// Retries apply to `Overloaded` responses for every request type (the
/// server sheds those before touching any state) and to read timeouts for
/// idempotent requests only. Every resend uses a fresh request id.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the initial attempt; `0` disables retrying.
    pub max_retries: u32,
    /// First backoff step; doubles each attempt.
    pub base_backoff_ms: u64,
    /// Backoff ceiling (the server's retry-after hint is also clamped here).
    pub max_backoff_ms: u64,
    /// Seed for the jitter RNG, so harness runs are reproducible.
    pub seed: u64,
}

impl RetryPolicy {
    /// No retrying at all: every failure surfaces immediately.
    pub fn none() -> RetryPolicy {
        RetryPolicy { max_retries: 0, base_backoff_ms: 0, max_backoff_ms: 0, seed: 0 }
    }
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { max_retries: 4, base_backoff_ms: 10, max_backoff_ms: 500, seed: 0x5eed }
    }
}

/// Answers as received off the wire, plus the canonical body bytes for
/// differential comparison against local execution.
#[derive(Debug, Clone)]
pub struct WireAnswers {
    /// The decoded answer payload.
    pub body: AnswerBody,
    /// Always `false` (see [`Response::Answers`]).
    pub reprepared: bool,
}

impl WireAnswers {
    /// The canonical bytes of the answer body (excludes the replan flag), as
    /// compared in differential tests.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.body.encode()
    }
}

/// A blocking connection to a certus server.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    retry: RetryPolicy,
    rng: StdRng,
    retries: u64,
}

/// Whether a lost response for this request is safe to resend: reads, plan
/// management and replication introspection are; `Promote` is idempotent by
/// design (promoting a primary just acks); `Insert` is not (the write may
/// have been durably applied even though its ack never arrived), and
/// `Close`/`Shutdown` change connection state.
fn idempotent(req: &Request) -> bool {
    matches!(
        req,
        Request::Ping
            | Request::Stats
            | Request::Prepare { .. }
            | Request::Execute { .. }
            | Request::Query { .. }
            | Request::ReplStatus
            | Request::Promote
    )
}

fn is_timeout(e: &WireError) -> bool {
    matches!(e, WireError::Io(io)
        if io.kind() == ErrorKind::WouldBlock || io.kind() == ErrorKind::TimedOut)
}

impl Client {
    /// Connect and verify liveness with a ping handshake. Retrying is off;
    /// opt in with [`Client::with_retry`].
    pub fn connect(addr: impl ToSocketAddrs) -> ClientResult<Client> {
        let stream = TcpStream::connect(addr).map_err(WireError::Io)?;
        let _ = stream.set_nodelay(true);
        let mut client = Client {
            stream,
            next_id: 1,
            retry: RetryPolicy::none(),
            rng: StdRng::seed_from_u64(0),
            retries: 0,
        };
        client.ping()?;
        Ok(client)
    }

    /// Enable retrying for closed-loop calls under `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client {
        self.rng = StdRng::seed_from_u64(policy.seed);
        self.retry = policy;
        self
    }

    /// Bound how long closed-loop calls wait for any single response frame.
    /// A `None` waits forever (the default). With a retry policy attached,
    /// timed-out idempotent requests are resent instead of surfacing.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) -> ClientResult<()> {
        self.stream.set_read_timeout(timeout).map_err(WireError::Io)?;
        Ok(())
    }

    /// Retries performed by this client so far (for harness assertions).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn send(&mut self, req: &Request) -> ClientResult<u64> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.stream, &encode_request(id, req))?;
        Ok(id)
    }

    /// Receive the next response frame, whatever request it answers.
    pub fn recv(&mut self) -> ClientResult<(u64, Response)> {
        let payload = read_frame(&mut self.stream)?;
        Ok(decode_response(&payload)?)
    }

    /// Block until the response for `id` arrives. Responses to requests
    /// pipelined before it arrive first and are skipped — callers mixing
    /// the closed-loop helpers with manual pipelining should drain
    /// pipelined responses first.
    fn wait_for(&mut self, id: u64) -> ClientResult<Response> {
        loop {
            let (got, resp) = self.recv()?;
            if got == id {
                return Ok(resp);
            }
            // Request id 0 is the server's channel for connection-scoped
            // refusals (connection cap, broken framing) — surface those
            // instead of waiting for a response that will never come.
            if got == 0 {
                if let Response::Error { code, message, .. } = resp {
                    return Err(ClientError::Server { code, message });
                }
            }
        }
    }

    /// Sleep before a retry: exponential in the attempt number, floored by
    /// the server's retry-after hint, capped by the policy ceiling, with
    /// seeded jitter in `[target/2, target]` so synchronized clients do not
    /// retry in lockstep.
    fn backoff(&mut self, attempt: u32, server_hint_ms: u64) {
        self.retries += 1;
        registry().counter(names::CLIENT_RETRIES).incr();
        let exp = self.retry.base_backoff_ms.saturating_mul(1u64 << attempt.min(16));
        let target = exp.max(server_hint_ms).min(self.retry.max_backoff_ms).max(1);
        let span = target - target / 2;
        let jittered = target / 2 + self.rng.next_u64() % (span + 1);
        thread::sleep(Duration::from_millis(jittered));
    }

    /// One request/response exchange, retrying per the policy: `Overloaded`
    /// for any request type, read timeouts for idempotent ones. Each resend
    /// is a brand-new request with a fresh id.
    fn rpc(&mut self, req: &Request) -> ClientResult<Response> {
        let mut attempt: u32 = 0;
        loop {
            let outcome = self.send(req).and_then(|id| self.wait_for(id));
            match outcome {
                Ok(Response::Error { code: ErrorCode::Overloaded, message, retry_after_ms }) => {
                    if attempt < self.retry.max_retries {
                        self.backoff(attempt, retry_after_ms);
                        attempt += 1;
                        continue;
                    }
                    return Err(ClientError::Server { code: ErrorCode::Overloaded, message });
                }
                Ok(Response::Error { code, message, .. }) => {
                    return Err(ClientError::Server { code, message });
                }
                Ok(resp) => return Ok(resp),
                Err(ClientError::Wire(e))
                    if is_timeout(&e) && idempotent(req) && attempt < self.retry.max_retries =>
                {
                    self.backoff(attempt, 0);
                    attempt += 1;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Ping; returns the server's current data version.
    pub fn ping(&mut self) -> ClientResult<u64> {
        match self.rpc(&Request::Ping)? {
            Response::Pong { epoch } => Ok(epoch),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Prepare a query server-side; returns the statement id and the schema
    /// epoch it was planned at. The statement stays executable across
    /// writes and sees their rows.
    pub fn prepare(
        &mut self,
        certainty: WireCertainty,
        query: &RaExpr,
    ) -> ClientResult<(u64, u64)> {
        let req = Request::Prepare { certainty, query: query.clone() };
        match self.rpc(&req)? {
            Response::Prepared { prepared, epoch } => Ok((prepared, epoch)),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Execute a prepared statement.
    pub fn execute(&mut self, prepared: u64) -> ClientResult<WireAnswers> {
        self.execute_with_deadline(prepared, 0)
    }

    /// Execute a prepared statement under a deadline (milliseconds from the
    /// server reading the request; `0` means none). Past it the server
    /// answers `DeadlineExceeded` instead of results.
    pub(crate) fn execute_with_deadline(
        &mut self,
        prepared: u64,
        deadline_ms: u64,
    ) -> ClientResult<WireAnswers> {
        match self.rpc(&Request::Execute { prepared, deadline_ms })? {
            Response::Answers { body, reprepared } => Ok(WireAnswers { body, reprepared }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// One-shot prepare + execute.
    pub fn query(&mut self, certainty: WireCertainty, query: &RaExpr) -> ClientResult<WireAnswers> {
        self.query_with_deadline(certainty, query, 0)
    }

    /// One-shot query under a deadline (milliseconds from the server reading
    /// the request; `0` means none).
    pub fn query_with_deadline(
        &mut self,
        certainty: WireCertainty,
        query: &RaExpr,
        deadline_ms: u64,
    ) -> ClientResult<WireAnswers> {
        let req = Request::Query { certainty, query: query.clone(), deadline_ms };
        match self.rpc(&req)? {
            Response::Answers { body, reprepared } => Ok(WireAnswers { body, reprepared }),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Append rows to a table; returns the data version after the write. On
    /// a durable server the returned version means the rows are fsync'd to
    /// the WAL and will survive a crash.
    pub fn insert(&mut self, table: &str, rows: Vec<Tuple>) -> ClientResult<u64> {
        let req = Request::Insert { table: table.to_string(), rows };
        match self.rpc(&req)? {
            Response::Ack { epoch } => Ok(epoch),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch the node's replication status: role, term, durable WAL
    /// position, mode, and per-replica lag (on primaries).
    pub fn repl_status(&mut self) -> ClientResult<ReplStatusBody> {
        match self.rpc(&Request::ReplStatus)? {
            Response::ReplStatus(body) => Ok(body),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Promote the connected node: seal its apply stream, make it writable,
    /// and bump the replication term. Operator-initiated failover — no
    /// consensus; the caller is responsible for stopping the old primary.
    /// Promoting a node that is already a primary is a no-op ack.
    pub fn promote(&mut self) -> ClientResult<u64> {
        match self.rpc(&Request::Promote)? {
            Response::Ack { epoch } => Ok(epoch),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Fetch server counters.
    pub fn stats(&mut self) -> ClientResult<ServerStats> {
        match self.rpc(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Ask the server to shut down gracefully.
    pub fn shutdown_server(&mut self) -> ClientResult<()> {
        match self.rpc(&Request::Shutdown)? {
            Response::Ack { .. } => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    /// Close this connection. The server answers every request sent before
    /// the `Close` first, so pipelined responses still in the socket are
    /// skipped.
    pub fn close(mut self) -> ClientResult<()> {
        match self.rpc(&Request::Close)? {
            Response::Ack { .. } => Ok(()),
            other => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }

    // ---- pipelined (open-loop) API ----------------------------------------

    /// Send a one-shot query without waiting; returns its request id.
    pub fn send_query(&mut self, certainty: WireCertainty, query: &RaExpr) -> ClientResult<u64> {
        self.send(&Request::Query { certainty, query: query.clone(), deadline_ms: 0 })
    }

    /// Send an execute without waiting; returns its request id.
    pub fn send_execute(&mut self, prepared: u64) -> ClientResult<u64> {
        self.send(&Request::Execute { prepared, deadline_ms: 0 })
    }

    /// Send an insert without waiting; returns its request id.
    pub fn send_insert(&mut self, table: &str, rows: Vec<Tuple>) -> ClientResult<u64> {
        self.send(&Request::Insert { table: table.to_string(), rows })
    }

    /// Receive a response and require it to be answers (any request id).
    pub fn recv_answers(&mut self) -> ClientResult<(u64, WireAnswers)> {
        match self.recv()? {
            (id, Response::Answers { body, reprepared }) => {
                Ok((id, WireAnswers { body, reprepared }))
            }
            (_, Response::Error { code, message, .. }) => {
                Err(ClientError::Server { code, message })
            }
            (_, other) => Err(ClientError::Unexpected(format!("{other:?}"))),
        }
    }
}

/// A replica-aware client over a set of node addresses.
///
/// * **Reads** (`query`) round-robin across every reachable node — replicas
///   serve reads from their own pinned snapshots — and fail over to the next
///   node when one is down or shutting down.
/// * **Writes** (`insert`) go to the believed primary and follow `NotPrimary`
///   redirects (the error message carries the primary's address verbatim);
///   a node that cannot even be *connected* is skipped, but a connection
///   that dies mid-write surfaces the error — the write is indeterminate
///   and must never be blindly resent.
/// * [`ClusterClient::probe_primary`] asks every reachable node for its
///   replication status and believes the highest-term node reporting
///   [`ReplRole::Primary`] — how a harness re-finds the cluster head after
///   a failover.
///
/// Connections are opened lazily and dropped on any wire error, so a killed
/// node is retried with a fresh socket next time around.
pub struct ClusterClient {
    endpoints: Vec<String>,
    conns: Vec<Option<Client>>,
    retry: RetryPolicy,
    op_timeout: Option<Duration>,
    /// Index reads start from next (round-robin cursor).
    next_read: usize,
    /// Index writes are sent to until a redirect says otherwise.
    primary: usize,
    redirects: u64,
    read_failovers: u64,
}

impl ClusterClient {
    /// A cluster client over `endpoints` (no connections are opened yet).
    /// The first endpoint is presumed primary until a redirect or a probe
    /// says otherwise.
    pub fn new(endpoints: Vec<String>) -> ClusterClient {
        let n = endpoints.len();
        ClusterClient {
            endpoints,
            conns: (0..n).map(|_| None).collect(),
            retry: RetryPolicy::none(),
            op_timeout: None,
            next_read: 0,
            primary: 0,
            redirects: 0,
            read_failovers: 0,
        }
    }

    /// Apply `policy` to every per-node connection.
    pub fn with_retry(mut self, policy: RetryPolicy) -> ClusterClient {
        self.retry = policy;
        self
    }

    /// Bound how long any single response is waited for, on every node.
    pub fn set_op_timeout(&mut self, timeout: Option<Duration>) {
        self.op_timeout = timeout;
        for conn in self.conns.iter_mut().flatten() {
            let _ = conn.set_op_timeout(timeout);
        }
    }

    /// `NotPrimary` redirects followed so far (for harness assertions).
    pub fn redirects(&self) -> u64 {
        self.redirects
    }

    /// Reads that failed over to another node so far.
    pub fn read_failovers(&self) -> u64 {
        self.read_failovers
    }

    /// The endpoint currently believed to be the primary.
    pub fn primary_endpoint(&self) -> &str {
        &self.endpoints[self.primary]
    }

    fn conn(&mut self, idx: usize) -> ClientResult<&mut Client> {
        if self.conns[idx].is_none() {
            let mut client = Client::connect(&self.endpoints[idx])?.with_retry(self.retry.clone());
            client.set_op_timeout(self.op_timeout)?;
            self.conns[idx] = Some(client);
        }
        Ok(self.conns[idx].as_mut().expect("connection just opened"))
    }

    /// Whether a per-node failure should move a *read* to the next node.
    fn read_should_failover(e: &ClientError) -> bool {
        matches!(e, ClientError::Wire(_))
            || matches!(e, ClientError::Server { code: ErrorCode::ShuttingDown, .. })
    }

    /// Run a one-shot query, round-robining across nodes and failing over
    /// past dead or draining ones. Errors only when every node failed.
    pub fn query(&mut self, certainty: WireCertainty, query: &RaExpr) -> ClientResult<WireAnswers> {
        let n = self.endpoints.len().max(1);
        let mut last_err: Option<ClientError> = None;
        for attempt in 0..n {
            let idx = (self.next_read + attempt) % n;
            let outcome = self.conn(idx).and_then(|c| c.query(certainty, query));
            match outcome {
                Ok(answers) => {
                    self.next_read = (idx + 1) % n;
                    if attempt > 0 {
                        self.read_failovers += 1;
                    }
                    return Ok(answers);
                }
                Err(e) if Self::read_should_failover(&e) => {
                    self.conns[idx] = None;
                    last_err = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last_err.unwrap_or(ClientError::Unexpected("no endpoints configured".into())))
    }

    /// Resolve a redirect target to an endpoint index, learning brand-new
    /// addresses (a promoted node we were not configured with).
    fn endpoint_index(&mut self, addr: &str) -> usize {
        if let Some(idx) = self.endpoints.iter().position(|e| e == addr) {
            return idx;
        }
        self.endpoints.push(addr.to_string());
        self.conns.push(None);
        self.endpoints.len() - 1
    }

    /// Insert rows, following `NotPrimary` redirects to wherever the
    /// primary actually is. Nodes that cannot be connected at all are
    /// skipped (no request was ever sent), but a write that *was* sent and
    /// then failed surfaces its error — it is indeterminate and following
    /// the write-safety rules must not be blindly resent.
    pub fn insert(&mut self, table: &str, rows: Vec<Tuple>) -> ClientResult<u64> {
        let mut tried = 0usize;
        let mut hops = 0usize;
        let mut last_err: Option<ClientError> = None;
        let mut idx = self.primary;
        // Bounded by: one hop per configured endpoint (connect failures
        // rotate through them) plus a couple of genuine redirects.
        while tried < self.endpoints.len() && hops < self.endpoints.len() + 2 {
            hops += 1;
            match self.conn(idx) {
                Err(e) => {
                    // Never connected: nothing was sent, safe to try the
                    // next node as a primary candidate.
                    self.conns[idx] = None;
                    last_err = Some(e);
                    tried += 1;
                    idx = (idx + 1) % self.endpoints.len();
                    continue;
                }
                Ok(conn) => match conn.insert(table, rows.clone()) {
                    Ok(epoch) => {
                        self.primary = idx;
                        return Ok(epoch);
                    }
                    Err(ClientError::Server { code: ErrorCode::NotPrimary, message }) => {
                        // The message is the primary's address verbatim.
                        self.redirects += 1;
                        idx = self.endpoint_index(&message);
                        self.primary = idx;
                    }
                    Err(e) => return Err(e),
                },
            }
        }
        Err(last_err.unwrap_or(ClientError::Unexpected("no primary reachable".into())))
    }

    /// Ask every reachable node for its replication status and believe the
    /// highest-term one reporting [`ReplRole::Primary`]. Returns its
    /// endpoint, also adopting it as the write target.
    pub fn probe_primary(&mut self) -> ClientResult<String> {
        let mut best: Option<(u64, usize)> = None;
        for idx in 0..self.endpoints.len() {
            let status = match self.conn(idx).and_then(|c| c.repl_status()) {
                Ok(status) => status,
                Err(_) => {
                    self.conns[idx] = None;
                    continue;
                }
            };
            if status.role == ReplRole::Primary && best.is_none_or(|(term, _)| status.term > term) {
                best = Some((status.term, idx));
            }
        }
        match best {
            Some((_, idx)) => {
                self.primary = idx;
                Ok(self.endpoints[idx].clone())
            }
            None => Err(ClientError::Unexpected("no reachable primary".into())),
        }
    }
}
