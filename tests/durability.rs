//! End-to-end tests for the robustness layer: durable inserts surviving
//! server restarts (WAL recovery) and torn appends, per-request deadlines,
//! idle-connection reaping (timed from the last response), and the client's
//! retry behavior against a scripted peer.

use certus::data::builder::rel;
use certus::data::wal::FP_APPEND;
use certus::obs::{failpoints, FailAction};
use certus::{Database, RaExpr, Tuple, Value};
use certus_server::client::{Client, RetryPolicy};
use certus_server::protocol::{
    decode_request, encode_response, read_frame, write_frame, Request, Response, WireCertainty,
};
use certus_server::{ErrorCode, ReplMode, ReplicationConfig, Server, ServerConfig};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use std::thread;
use std::time::{Duration, Instant};

/// The failpoint registry is process-wide: the test that arms the WAL's
/// append failpoint holds this exclusively, and every other test that writes
/// to a durable server holds it shared, so the fault never fires in another
/// test's store.
static FAILPOINTS: RwLock<()> = RwLock::new(());

fn unarmed() -> RwLockReadGuard<'static, ()> {
    FAILPOINTS.read().unwrap_or_else(PoisonError::into_inner)
}

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("certus-durability-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_db() -> Database {
    let mut db = Database::new();
    db.insert_relation("log", rel(&["v"], vec![vec![Value::Int(0)]]));
    db
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        executors: 2,
        engine_threads: 1,
        data_dir: Some(dir.to_path_buf()),
        checkpoint_every: 4,
        ..ServerConfig::default()
    }
}

fn log_values(client: &mut Client) -> Vec<i64> {
    let answers = client.query(WireCertainty::Plain, &RaExpr::relation("log")).expect("query log");
    answers
        .body
        .plain
        .expect("plain answers")
        .iter()
        .map(|t| match t.values()[0] {
            Value::Int(v) => v,
            ref other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

#[test]
fn acked_inserts_survive_a_server_restart() {
    let _failpoints = unarmed();
    let dir = temp_dir("restart");

    let mut acked = vec![0i64];
    {
        let server = Server::start(seed_db(), durable_config(&dir)).expect("first server");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        // Enough rows to cross checkpoint_every, so recovery replays a
        // checkpoint AND a WAL suffix, not just one or the other.
        for i in 1..=11i64 {
            client.insert("log", vec![Tuple::new(vec![Value::Int(i)])]).expect("insert");
            acked.push(i);
        }
        client.close().expect("close");
        server.shutdown();
    }

    // The restarted server recovers from disk; the fallback database passed
    // to `start` (a fresh seed with only row 0) must be ignored.
    let server = Server::start(seed_db(), durable_config(&dir)).expect("second server");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    assert_eq!(log_values(&mut client), acked, "recovered state == acknowledged writes");

    // And the recovered store keeps accepting durable writes.
    client.insert("log", vec![Tuple::new(vec![Value::Int(99)])]).expect("post-recovery insert");
    acked.push(99);
    assert_eq!(log_values(&mut client), acked);
    client.close().expect("close");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_folds_through_repeated_restarts() {
    let _failpoints = unarmed();
    let dir = temp_dir("generations");
    let mut acked = vec![0i64];
    let mut next = 1i64;
    for _ in 0..4 {
        let server = Server::start(seed_db(), durable_config(&dir)).expect("server starts");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        assert_eq!(log_values(&mut client), acked, "each generation recovers the last");
        for _ in 0..5 {
            client.insert("log", vec![Tuple::new(vec![Value::Int(next)])]).expect("insert");
            acked.push(next);
            next += 1;
        }
        // Abrupt teardown: no clean client close, no explicit checkpoint.
        drop(client);
        server.shutdown();
    }
    let server = Server::start(seed_db(), durable_config(&dir)).expect("final server");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(log_values(&mut client), acked);
    client.close().expect("close");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_torn_append_heals_on_the_next_insert() {
    let _failpoints = FAILPOINTS.write().unwrap_or_else(PoisonError::into_inner);
    let dir = temp_dir("torn");
    let row = |v: i64| vec![Tuple::new(vec![Value::Int(v)])];
    let server = Server::start(seed_db(), durable_config(&dir)).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.insert("log", row(1)).expect("insert before the fault");

    // A crash mid-append that the process survives: six bytes of the record
    // reach the log, and the insert is refused.
    failpoints().arm(FP_APPEND, FailAction::Torn(6), 0, 1);
    let torn = client.insert("log", row(2));
    failpoints().disarm(FP_APPEND);
    assert!(torn.is_err(), "a torn append is never acked");

    // The running node heals: the next insert cuts the torn tail off and is
    // acked, with no restart in between.
    client.insert("log", row(3)).expect("insert after the fault");
    assert_eq!(log_values(&mut client), vec![0, 1, 3]);
    client.close().expect("close");
    server.shutdown();

    // Recovery reads every acked row back, and never the torn one.
    let server = Server::start(seed_db(), durable_config(&dir)).expect("restart");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    assert_eq!(log_values(&mut client), vec![0, 1, 3]);
    client.close().expect("close");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_expired_deadline_is_reported_not_executed() {
    // A deliberately heavy query (a three-way cross product) so a 1ms
    // deadline always expires — either while waiting for a slot or at one
    // of the engine's morsel-boundary cancellation checks.
    let rows: Vec<Vec<Value>> = (0..300).map(|i| vec![Value::Int(i)]).collect();
    let mut db = Database::new();
    db.insert_relation("a", rel(&["x"], rows.clone()));
    db.insert_relation("b", rel(&["y"], rows.clone()));
    db.insert_relation("c", rel(&["z"], rows));
    let heavy = RaExpr::relation("a").product(RaExpr::relation("b")).product(RaExpr::relation("c"));

    let config = ServerConfig { executors: 1, engine_threads: 1, ..ServerConfig::default() };
    let server = Server::start(db, config).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let err = client
        .query_with_deadline(WireCertainty::Plain, &heavy, 1)
        .expect_err("deadline must trip");
    match err {
        certus_server::ClientError::Server { code, .. } => {
            assert_eq!(code, ErrorCode::DeadlineExceeded)
        }
        other => panic!("expected a DeadlineExceeded server error, got {other}"),
    }

    // The connection stays usable: a cheap undeadlined query still runs.
    let ok = client
        .query_with_deadline(WireCertainty::Plain, &RaExpr::relation("a"), 0)
        .expect("no deadline");
    assert_eq!(ok.body.plain.expect("plain").len(), 300);
    client.close().expect("close");
    server.shutdown();
}

#[test]
fn idle_connections_are_reaped_with_a_clean_ack() {
    let config = ServerConfig {
        executors: 1,
        engine_threads: 1,
        idle_timeout_ms: 60,
        poll_interval_ms: 5,
        ..ServerConfig::default()
    };
    let server = Server::start(seed_db(), config).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Go quiet past the idle window; the server announces the close with an
    // `Ack` on the server channel (request id 0) before dropping the socket.
    thread::sleep(Duration::from_millis(250));
    match client.recv().expect("the close announcement arrives") {
        (0, Response::Ack { .. }) => {}
        other => panic!("expected a clean Ack on id 0, got {other:?}"),
    }
    server.shutdown();
}

#[test]
fn the_idle_window_runs_from_the_last_response() {
    // A sync-replicated primary that no replica joins holds each insert's
    // answer for the quorum timeout: one request that runs five idle
    // windows. A connection answered a moment ago is not idle.
    let _failpoints = unarmed();
    let dir = temp_dir("idle-long");
    let repl = ReplicationConfig {
        ack_timeout_ms: 300,
        ..ReplicationConfig::primary(ReplMode::Sync { quorum: 1 })
    };
    let config = ServerConfig {
        idle_timeout_ms: 60,
        poll_interval_ms: 5,
        replication: Some(repl),
        ..durable_config(&dir)
    };
    let server = Server::start(seed_db(), config).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    match client.insert("log", vec![Tuple::new(vec![Value::Int(1)])]) {
        Err(certus_server::ClientError::Server { code: ErrorCode::Internal, message }) => {
            assert!(message.contains("replica ack"), "a quorum timeout: {message}")
        }
        other => panic!("expected the quorum timeout, got {other:?}"),
    }
    thread::sleep(Duration::from_millis(10));
    client.ping().expect("a Pong, not the reaper's Ack and EOF");
    client.close().expect("close");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A scripted peer speaking the wire protocol, for deterministic retry
/// tests: answers the connect handshake, then runs `script` on each
/// subsequent request (returning `None` leaves the request unanswered).
fn scripted_server(
    script: impl Fn(u64, u64, Request) -> Option<Response> + Send + 'static,
) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // As the real server does: without nodelay, Nagle + delayed ACK can
        // split the len/payload writes across a client read timeout.
        stream.set_nodelay(true).expect("nodelay");
        let mut served = 0u64;
        loop {
            let payload = match read_frame(&mut stream) {
                Ok(p) => p,
                Err(_) => return,
            };
            let (id, request) = decode_request(&payload).expect("decode");
            let response = if served == 0 {
                // The Client::connect liveness handshake.
                Some(Response::Pong { epoch: 0 })
            } else {
                script(served, id, request)
            };
            served += 1;
            if let Some(resp) = response {
                let _ = write_frame(&mut stream, &encode_response(id, &resp));
            }
        }
    });
    addr
}

#[test]
fn overloaded_responses_are_retried_and_honor_the_hint() {
    // Request #1 (after the handshake) is shed with a retry-after hint;
    // the resend succeeds.
    let addr = scripted_server(|served, _, _| {
        if served == 1 {
            Some(Response::Error {
                code: ErrorCode::Overloaded,
                message: "shed".into(),
                retry_after_ms: 20,
            })
        } else {
            Some(Response::Pong { epoch: 7 })
        }
    });
    let mut client = Client::connect(addr)
        .expect("connect")
        .with_retry(RetryPolicy { max_retries: 3, ..RetryPolicy::default() });
    let t = Instant::now();
    assert_eq!(client.ping().expect("retried ping succeeds"), 7);
    // Jitter keeps the backoff in [hint/2, hint] — at least 10ms slept.
    assert!(t.elapsed() >= Duration::from_millis(10), "the retry-after hint floors the backoff");
    assert_eq!(client.retries(), 1);
}

#[test]
fn overloaded_surfaces_once_retries_are_exhausted() {
    let addr = scripted_server(|_, _, _| {
        Some(Response::Error {
            code: ErrorCode::Overloaded,
            message: "shed".into(),
            retry_after_ms: 1,
        })
    });
    let mut client = Client::connect(addr).expect("connect").with_retry(RetryPolicy {
        max_retries: 2,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        seed: 1,
    });
    let err = client.stats().expect_err("eventually surfaces");
    match err {
        certus_server::ClientError::Server { code, .. } => {
            assert_eq!(code, ErrorCode::Overloaded)
        }
        other => panic!("expected Overloaded, got {other}"),
    }
    assert_eq!(client.retries(), 2);
}

#[test]
fn timeouts_retry_idempotent_requests_but_never_inserts() {
    // The scripted peer stays silent on the first post-handshake request
    // (a ping, which must be retried) and on every insert (which must not).
    let addr = scripted_server(|served, _, request| {
        if served == 1 || matches!(request, Request::Insert { .. }) {
            return None;
        }
        match request {
            Request::Ping => Some(Response::Pong { epoch: 3 }),
            _ => Some(Response::Ack { epoch: 3 }),
        }
    });
    let mut client = Client::connect(addr).expect("connect").with_retry(RetryPolicy {
        max_retries: 2,
        base_backoff_ms: 1,
        max_backoff_ms: 2,
        seed: 2,
    });
    client.set_op_timeout(Some(Duration::from_millis(150))).expect("op timeout");

    // Idempotent: the timed-out ping is resent and succeeds.
    assert_eq!(client.ping().expect("retried ping"), 3);
    assert_eq!(client.retries(), 1);

    // Not idempotent: a timed-out insert surfaces instead of resending —
    // the server may have durably applied it even though the ack was lost.
    let err = client
        .insert("log", vec![Tuple::new(vec![Value::Int(1)])])
        .expect_err("inserts never retry on timeout");
    assert!(matches!(err, certus_server::ClientError::Wire(_)), "surfaces the transport timeout");
    assert_eq!(client.retries(), 1, "no retry was attempted");
}

#[test]
fn invalid_rows_are_rejected_without_touching_durable_state() {
    let _failpoints = unarmed();
    let dir = temp_dir("reject");
    let server = Server::start(seed_db(), durable_config(&dir)).expect("server starts");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.insert("log", vec![Tuple::new(vec![Value::Int(1)])]).expect("good insert");
    // Wrong arity: validated against the pinned snapshot and refused before
    // anything reaches the WAL.
    let err = client
        .insert("log", vec![Tuple::new(vec![Value::Int(2), Value::Int(3)])])
        .expect_err("bad row refused");
    assert!(matches!(err, certus_server::ClientError::Server { code: ErrorCode::QueryError, .. }));
    drop(client);
    server.shutdown();

    // Recovery sees only the acknowledged write.
    let server = Server::start(seed_db(), durable_config(&dir)).expect("restart");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(log_values(&mut client), vec![0, 1]);
    client.close().expect("close");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
