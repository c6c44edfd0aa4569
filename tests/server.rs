//! End-to-end tests for the certus-server subsystem: snapshot isolation
//! under concurrent writers, byte-identical server vs. local execution,
//! transparent re-preparation across epoch bumps, admission control, and
//! graceful shutdown under a multi-client burst.

use certus::algebra::builder::eq;
use certus::data::builder::rel;
use certus::data::null::NullId;
use certus::data::snapshot::SnapshotStore;
use certus::{Certainty, Database, RaExpr, Session, Tuple, Value};
use certus_server::client::Client;
use certus_server::protocol::WireCertainty;
use certus_server::{answer_body, ErrorCode, Server, ServerConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

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
fn stale_prepared_statements_are_transparently_re_prepared() {
    let server = Server::start(incomplete_db(), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let scan_r = RaExpr::relation("r");
    let (stmt, prepared_epoch) = client.prepare(WireCertainty::Plain, &scan_r).unwrap();
    assert_eq!(prepared_epoch, server.epoch());
    let first = client.execute(stmt).unwrap();
    assert!(!first.reprepared, "fresh plan executes as-is");
    let before = first.body.plain.as_ref().unwrap().len();
    assert_eq!(before, 3);

    // A write bumps the schema epoch; the server-side plan is now stale.
    let new_epoch = client.insert("r", vec![Tuple::new(vec![Value::Int(42)])]).unwrap();
    assert!(new_epoch > prepared_epoch);

    let second = client.execute(stmt).unwrap();
    assert!(second.reprepared, "stale plan was re-prepared server-side");
    let after = second.body.plain.as_ref().unwrap().len();
    assert_eq!(after, before + 1, "re-prepared plan sees the inserted row");

    let third = client.execute(stmt).unwrap();
    assert!(!third.reprepared, "refreshed plan is kept for later executes");

    let stats = client.stats().unwrap();
    assert!(stats.stale_replans >= 1);
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
    // One executor, a two-slot queue: a heavy query occupies the executor
    // while a burst of pipelined queries lands, so most of the burst must be
    // shed with `Overloaded` rather than queued without bound.
    let mut db = Database::new();
    let rows: Vec<Vec<Value>> = (0..400).map(|i| vec![Value::Int(i)]).collect();
    db.insert_relation("big", rel(&["a"], rows));
    let config = ServerConfig { executors: 1, queue_capacity: 2, ..ServerConfig::default() };
    let server = Server::start(db, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let heavy = RaExpr::relation("big").product(RaExpr::relation("big"));
    let light = RaExpr::relation("big");
    let mut ids = vec![client.send_query(WireCertainty::Plain, &heavy).unwrap()];
    for _ in 0..10 {
        ids.push(client.send_query(WireCertainty::Plain, &light).unwrap());
    }

    let mut answered = 0;
    let mut shed = 0;
    for _ in 0..ids.len() {
        let (id, resp) = client.recv().unwrap();
        assert!(ids.contains(&id), "response {id} matches a request");
        match resp {
            certus_server::Response::Answers { .. } => answered += 1,
            certus_server::Response::Error { code, .. } => {
                assert_eq!(code, ErrorCode::Overloaded);
                shed += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(answered + shed, 11, "every request gets exactly one response");
    assert!(shed >= 1, "a two-slot queue cannot hold a ten-request burst");
    assert!(answered >= 1, "the heavy query itself completes");
    let stats = client.stats().unwrap();
    assert!(stats.rejected >= shed as u64);
    client.close().unwrap();
    server.shutdown();
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
