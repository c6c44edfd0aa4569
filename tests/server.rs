//! End-to-end tests for the certus-server subsystem: snapshot isolation
//! under concurrent writers, byte-identical server vs. local execution,
//! prepared statements that see later inserts without re-planning,
//! all-or-nothing inserts, in-order execution per connection, admission
//! control, and graceful shutdown under a multi-client burst.

use certus::algebra::builder::eq;
use certus::data::builder::rel;
use certus::data::null::NullId;
use certus::data::snapshot::SnapshotStore;
use certus::{Certainty, Database, RaExpr, Session, Tuple, Value};
use certus_server::client::Client;
use certus_server::protocol::{
    decode_response, encode_request, read_frame, write_frame, WireCertainty,
};
use certus_server::{
    answer_body, ErrorCode, ReplMode, ReplicationConfig, Request, Response, Server, ServerConfig,
    ServerStats,
};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// A small incomplete database where plain SQL produces false positives:
/// `r.a = 1` is returned by `r ANTIJOIN s` under SQL semantics although a
/// valuation sending `⊥₁ ↦ 1` removes it.
fn incomplete_db() -> Database {
    let mut db = Database::new();
    db.insert_relation(
        "r",
        rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]),
    );
    db.insert_relation("s", rel(&["b"], vec![vec![Value::Null(NullId(1))], vec![Value::Int(3)]]));
    db
}

fn anti_join() -> RaExpr {
    RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"))
}

fn row(v: i64) -> Vec<Tuple> {
    vec![Tuple::new(vec![Value::Int(v)])]
}

/// A sync-replicated primary that no replica ever joins, serving `r`, `s`
/// and `log`. It publishes each insert and then holds the insert's answer
/// for `hold_ms` waiting for a quorum that never comes: a request that
/// occupies its execution slot for a known time without burning a core.
fn slot_holding_server(tag: &str, hold_ms: u64, config: ServerConfig) -> (Server, PathBuf) {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("certus-server-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut db = incomplete_db();
    db.insert_relation("log", rel(&["v"], vec![vec![Value::Int(0)]]));
    let repl = ReplicationConfig {
        ack_timeout_ms: hold_ms,
        ..ReplicationConfig::primary(ReplMode::Sync { quorum: 1 })
    };
    let config = ServerConfig { data_dir: Some(dir.clone()), replication: Some(repl), ..config };
    (Server::start(db, config).unwrap(), dir)
}

/// Poll the server's `Stats` through `observer` until `done` holds.
fn wait_for_stats(observer: &mut Client, what: &str, done: impl Fn(&ServerStats) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done(&observer.stats().unwrap()) {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// Send an insert that takes the slot and holds it, returning once it is
/// published (so it is running) together with its connection.
fn hold_a_slot(server: &Server, observer: &mut Client, v: i64) -> Client {
    let epoch = observer.stats().unwrap().epoch;
    let mut holder = Client::connect(server.local_addr()).unwrap();
    holder.send_insert("log", row(v)).unwrap();
    wait_for_stats(observer, "the holder's insert to publish", |s| s.epoch > epoch);
    holder
}

/// Receive the answer of an insert whose quorum never came.
fn expect_held_insert(client: &mut Client) {
    match client.recv().unwrap() {
        (_, Response::Error { code: ErrorCode::Internal, message, .. }) => {
            assert!(message.contains("replica ack"), "a quorum timeout: {message}");
        }
        other => panic!("expected the quorum timeout, got {other:?}"),
    }
}

fn log_values(client: &mut Client) -> Vec<i64> {
    let answers = client.query(WireCertainty::Plain, &RaExpr::relation("log")).unwrap();
    let rows = answers.body.plain.expect("plain answers");
    rows.iter()
        .map(|t| match t.values()[0] {
            Value::Int(v) => v,
            ref other => panic!("unexpected value {other:?}"),
        })
        .collect()
}

#[test]
fn concurrent_writers_never_block_readers_and_snapshots_stay_consistent() {
    let mut db = Database::new();
    db.insert_relation("log", rel(&["v"], vec![vec![Value::Int(0)]]));
    let store = Arc::new(SnapshotStore::new(db));
    let base_epoch = store.epoch();
    let base_len = store.pin().relation("log").unwrap().len();
    let stop = Arc::new(AtomicBool::new(false));

    // Invariant: every update inserts exactly one row and bumps the epoch
    // exactly once, so for ANY snapshot `len == base_len + (epoch - base)`.
    let mut readers = Vec::new();
    for _ in 0..4 {
        let store = Arc::clone(&store);
        let stop = Arc::clone(&stop);
        readers.push(thread::spawn(move || {
            let mut pins = 0u64;
            let mut last_epoch = 0u64;
            // Check first, test `stop` after: a reader scheduled only once
            // the writers are done still checks a snapshot — the final one.
            loop {
                let stopping = stop.load(Ordering::Relaxed);
                let snap = store.pin();
                let epoch = snap.epoch();
                assert!(epoch >= last_epoch, "epochs move forward");
                last_epoch = epoch;
                let len = snap.relation("log").unwrap().len() as u64;
                assert_eq!(
                    len,
                    base_len as u64 + (epoch - base_epoch),
                    "snapshot content matches its epoch"
                );
                pins += 1;
                if stopping {
                    break;
                }
            }
            pins
        }));
    }

    let writers: Vec<_> = (0..2)
        .map(|w| {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                for i in 0..50 {
                    store.update(|db| {
                        db.relation_mut("log")
                            .unwrap()
                            .insert_values(vec![Value::Int((w * 50 + i) as i64)])
                            .unwrap();
                    });
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Relaxed);
    for reader in readers {
        assert!(reader.join().unwrap() > 0, "every reader checked the invariant");
    }
    let final_snap = store.pin();
    assert_eq!(final_snap.relation("log").unwrap().len(), base_len + 100);
    assert_eq!(final_snap.epoch(), base_epoch + 100);
}

#[test]
fn server_answers_are_byte_identical_to_local_session_execution() {
    let db = incomplete_db();
    let server = Server::start(db.clone(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let local = Session::builder(db).build();

    let queries = [
        anti_join(),
        RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "b")),
        RaExpr::relation("r").select(certus::algebra::builder::eq_const("a", 2i64)),
        RaExpr::relation("r").union(RaExpr::relation("r")),
    ];
    for query in &queries {
        for (wire, cert) in [
            (WireCertainty::Plain, Certainty::Plain),
            (WireCertainty::CertainPlus, Certainty::CertainPlus),
            (WireCertainty::PossibleStar, Certainty::PossibleStar),
            (WireCertainty::Both, Certainty::Both),
        ] {
            let served = client.query(wire, query).unwrap();
            let expected = answer_body(&local.execute(query, cert).unwrap()).encode();
            assert_eq!(
                served.canonical_bytes(),
                expected,
                "server bytes differ from local session for {query:?} under {cert:?}"
            );
            assert!(!served.reprepared);
        }
    }
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn prepared_statements_see_inserts_without_re_preparing() {
    let server = Server::start(incomplete_db(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let scan_r = RaExpr::relation("r");
    let (stmt, _) = client.prepare(WireCertainty::Plain, &scan_r).unwrap();
    let first = client.execute(stmt).unwrap();
    let before = first.body.plain.as_ref().unwrap().len();
    assert_eq!(before, 3);
    let planned = client.stats().unwrap();

    // A write moves the data version, not the schema epoch the plan is
    // keyed on: the statement runs as prepared and sees the new row.
    let version = client.ping().unwrap();
    assert!(client.insert("r", row(42)).unwrap() > version);
    let second = client.execute(stmt).unwrap();
    assert!(!second.reprepared);
    let rows = second.body.plain.as_ref().unwrap();
    assert_eq!(rows.len(), before + 1, "the prepared plan sees the inserted row");
    assert!(rows.contains(&row(42)[0]));

    let stats = client.stats().unwrap();
    assert_eq!(stats.stale_replans, 0);
    assert_eq!(stats.cache_misses, planned.cache_misses, "nothing was planned again");
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn a_rejected_batch_leaves_the_in_memory_rows_and_version_untouched() {
    let server = Server::start(incomplete_db(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let version = client.ping().unwrap();
    // Only the batch's second row has the wrong arity: none of it lands.
    let batch = vec![Tuple::new(vec![Value::Int(7)]), Tuple::new(vec![Value::Int(8); 2])];
    match client.insert("r", batch) {
        Err(certus_server::ClientError::Server { code: ErrorCode::QueryError, .. }) => {}
        other => panic!("expected the arity error, got {other:?}"),
    }
    assert_eq!(client.ping().unwrap(), version);
    let rows = client.query(WireCertainty::Plain, &RaExpr::relation("r")).unwrap();
    assert_eq!(rows.body.plain.expect("plain answers").len(), 3);
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn connection_cap_refuses_excess_clients() {
    let config = ServerConfig { max_connections: 1, ..ServerConfig::default() };
    let server = Server::start(incomplete_db(), config).unwrap();
    let first = Client::connect(server.local_addr()).unwrap();
    match Client::connect(server.local_addr()) {
        Err(certus_server::ClientError::Server { code, .. }) => {
            assert_eq!(code, ErrorCode::TooManyConnections);
        }
        Err(other) => panic!("expected a connection-cap refusal, got {other}"),
        Ok(_) => panic!("expected a connection-cap refusal, got an admitted client"),
    }
    first.close().unwrap();
    // With the slot free again, a new client is admitted. The reader thread
    // needs a poll tick to unregister, so retry briefly.
    let mut admitted = None;
    for _ in 0..100 {
        match Client::connect(server.local_addr()) {
            Ok(c) => {
                admitted = Some(c);
                break;
            }
            Err(_) => thread::sleep(std::time::Duration::from_millis(5)),
        }
    }
    admitted.expect("slot frees after close").close().unwrap();
    server.shutdown();
}

#[test]
fn full_queue_sheds_requests_with_overloaded() {
    // One execution slot and room for two waiters: connection A holds the
    // slot while ten other connections each send one light query, so most
    // of the burst must be shed with `Overloaded` rather than wait without
    // bound.
    let config = ServerConfig { executors: 1, queue_capacity: 2, ..ServerConfig::default() };
    let (server, dir) = slot_holding_server("shed", 1000, config);
    let mut observer = Client::connect(server.local_addr()).unwrap();
    let mut burst: Vec<Client> =
        (0..10).map(|_| Client::connect(server.local_addr()).unwrap()).collect();
    let mut holder = hold_a_slot(&server, &mut observer, 1);

    let ids: Vec<u64> = burst
        .iter_mut()
        .map(|c| c.send_query(WireCertainty::Plain, &anti_join()).unwrap())
        .collect();
    let deepest = (0..50)
        .map(|_| {
            thread::sleep(Duration::from_millis(1));
            observer.stats().unwrap().queue_depth
        })
        .max();
    assert!(deepest <= Some(2), "no more than two requests ever wait: {deepest:?}");

    let mut answered = 0;
    let mut shed = 0;
    for (client, id) in burst.iter_mut().zip(ids) {
        match client.recv().unwrap() {
            (got, Response::Answers { .. }) if got == id => answered += 1,
            (got, Response::Error { code: ErrorCode::Overloaded, .. }) if got == id => shed += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    // The holder's own request ran to its end and was answered.
    expect_held_insert(&mut holder);
    answered += 1;
    assert_eq!(answered + shed, 11, "every request gets exactly one response");
    assert!(shed >= 1, "two waiting places cannot hold a ten-request burst");
    assert!(answered >= 1, "the holder's request itself completes");
    let stats = observer.stats().unwrap();
    assert!(stats.rejected >= shed as u64);
    drop((holder, burst));
    observer.close().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_connections_requests_run_in_the_order_sent() {
    // Four execution slots, but one connection: a pipelined insert and the
    // execute behind it run in the order sent, so every execute sees its
    // insert.
    let server = Server::start(incomplete_db(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    let (stmt, _) = client.prepare(WireCertainty::Plain, &RaExpr::relation("r")).unwrap();
    let mut expected = client.execute(stmt).unwrap().body.plain.expect("plain").len();

    for pair in 0..20i64 {
        let rows = (0..4).map(|k| Tuple::new(vec![Value::Int(100 + 4 * pair + k)])).collect();
        let insert = client.send_insert("r", rows).unwrap();
        let execute = client.send_execute(stmt).unwrap();
        match client.recv().unwrap() {
            (id, Response::Ack { .. }) => assert_eq!(id, insert, "the insert is answered first"),
            other => panic!("expected the insert's Ack, got {other:?}"),
        }
        let (id, answers) = client.recv_answers().unwrap();
        assert_eq!(id, execute);
        expected += 4;
        assert!(!answers.reprepared, "the insert left the statement's plan valid");
        assert_eq!(answers.body.plain.expect("plain").len(), expected, "pair {pair}");
    }
    client.close().unwrap();
    server.shutdown();
}

#[test]
fn waiting_requests_are_admitted_in_arrival_order() {
    // One execution slot. A holds it; B starts waiting, then C. Every
    // request's answer is written before its slot is freed, and each insert
    // appends its row when it runs, so `log` records the admission order.
    let config = ServerConfig { executors: 1, ..ServerConfig::default() };
    let (server, dir) = slot_holding_server("fifo", 500, config);
    let mut observer = Client::connect(server.local_addr()).unwrap();
    let mut b = Client::connect(server.local_addr()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let mut a = hold_a_slot(&server, &mut observer, 1);

    b.send_insert("log", row(2)).unwrap();
    wait_for_stats(&mut observer, "B to wait", |s| s.queue_depth == 1);
    c.send_insert("log", row(3)).unwrap();
    wait_for_stats(&mut observer, "C to wait behind B", |s| s.queue_depth == 2);

    for client in [&mut a, &mut b, &mut c] {
        expect_held_insert(client);
    }
    assert_eq!(log_values(&mut observer), vec![0, 1, 2, 3], "A, then B, then C");
    drop((a, b, c));
    observer.close().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn close_and_shutdown_answer_every_admitted_request_first() {
    // Close: two pipelined queries and a Close on one raw connection come
    // back as two answers, then the Ack.
    let server = Server::start(incomplete_db(), ServerConfig::default()).unwrap();
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    let query =
        Request::Query { certainty: WireCertainty::Plain, query: anti_join(), deadline_ms: 0 };
    for (id, request) in [(1, &query), (2, &query), (3, &Request::Close)] {
        write_frame(&mut raw, &encode_request(id, request)).unwrap();
    }
    let responses: Vec<(u64, Response)> =
        (0..3).map(|_| decode_response(&read_frame(&mut raw).unwrap()).unwrap()).collect();
    assert!(matches!(responses[0], (1, Response::Answers { .. })), "{responses:?}");
    assert!(matches!(responses[1], (2, Response::Answers { .. })), "{responses:?}");
    assert!(matches!(responses[2], (3, Response::Ack { .. })), "{responses:?}");
    server.shutdown();

    // Shutdown: a request still waiting for the slot when the server starts
    // shutting down is answered, not dropped.
    let config = ServerConfig { executors: 1, ..ServerConfig::default() };
    let (server, dir) = slot_holding_server("drain", 500, config);
    let mut observer = Client::connect(server.local_addr()).unwrap();
    let mut waiter = Client::connect(server.local_addr()).unwrap();
    let mut holder = hold_a_slot(&server, &mut observer, 1);
    let id = waiter.send_query(WireCertainty::Plain, &anti_join()).unwrap();
    wait_for_stats(&mut observer, "the query to wait", |s| s.queue_depth == 1);
    observer.shutdown_server().unwrap();
    assert!(server.shutdown_requested());
    let (got, _) = waiter.recv_answers().expect("the waiting query is answered");
    assert_eq!(got, id);
    expect_held_insert(&mut holder);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn many_clients_burst_then_server_shuts_down_cleanly() {
    let server = Server::start(incomplete_db(), ServerConfig::default()).unwrap();
    let addr = server.local_addr();
    let expected = {
        let local = Session::builder(incomplete_db()).build();
        answer_body(&local.execute(&anti_join(), Certainty::Both).unwrap()).encode()
    };

    let clients: Vec<_> = (0..8)
        .map(|_| {
            let expected = expected.clone();
            thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..10 {
                    let got = client.query(WireCertainty::Both, &anti_join()).unwrap();
                    assert_eq!(got.canonical_bytes(), expected);
                }
                // Then pipelined: a burst of sends before the first receive.
                // Every request id is answered exactly once, in any order,
                // with the same bytes.
                let mut unanswered: Vec<u64> = (0..4)
                    .map(|_| client.send_query(WireCertainty::Both, &anti_join()).unwrap())
                    .collect();
                while !unanswered.is_empty() {
                    let (id, got) = client.recv_answers().unwrap();
                    let sent = unanswered.iter().position(|&u| u == id);
                    unanswered.swap_remove(sent.expect("an answer to a request still in flight"));
                    assert_eq!(got.canonical_bytes(), expected);
                }
                client.close().unwrap();
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let mut closer = Client::connect(addr).unwrap();
    let stats = closer.stats().unwrap();
    assert!(stats.requests >= 8 * (10 + 4), "all burst queries were served");
    closer.shutdown_server().unwrap();
    assert!(server.shutdown_requested());
    server.shutdown();
}
