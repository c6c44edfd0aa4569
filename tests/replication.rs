//! End-to-end tests for WAL-shipping replication: read replicas and the
//! `NotPrimary` redirect, checkpoint bootstrap and rotation-following,
//! sync-quorum acks, operator promotion, graceful primary restarts without
//! re-bootstrap, prepared statements on a replica that outlive applied
//! inserts and re-bootstraps, the replica-aware [`ClusterClient`], and
//! fault injection on the stream and in the server above the storage layer.

use certus::data::builder::rel;
use certus::obs::failpoint::{failpoints, FailAction};
use certus::{Database, RaExpr, Tuple, Value};
use certus_server::client::{Client, RetryPolicy};
use certus_server::protocol::ReplRole;
use certus_server::replication::{FP_REPL_APPLY, FP_REPL_SEND};
use certus_server::server::{FP_ADMIT, FP_PUBLISH, FP_RESPOND};
use certus_server::{
    ClientError, ClusterClient, ErrorCode, ReplMode, ReplicationConfig, Server, ServerConfig,
    WireAnswers, WireCertainty,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// The failpoint registry is process-wide and the replication failpoint
/// names are fixed, so the tests in this binary run one at a time.
static GATE: Mutex<()> = Mutex::new(());

fn temp_dir(tag: &str) -> PathBuf {
    static UNIQ: AtomicU64 = AtomicU64::new(0);
    let n = UNIQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("certus-replication-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_db() -> Database {
    let mut db = Database::new();
    db.insert_relation("log", rel(&["v"], vec![vec![Value::Int(0)]]));
    db
}

fn node_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        executors: 2,
        engine_threads: 1,
        poll_interval_ms: 5,
        data_dir: Some(dir.to_path_buf()),
        checkpoint_every: 0,
        ..ServerConfig::default()
    }
}

fn primary_config(dir: &Path, mode: ReplMode) -> ServerConfig {
    ServerConfig { replication: Some(ReplicationConfig::primary(mode)), ..node_config(dir) }
}

fn replica_config(dir: &Path, primary: &str) -> ServerConfig {
    let repl = ReplicationConfig {
        reconnect_ms: 10,
        ..ReplicationConfig::replica(primary, ReplMode::Async)
    };
    ServerConfig { replication: Some(repl), ..node_config(dir) }
}

fn row(v: i64) -> Vec<Tuple> {
    vec![Tuple::new(vec![Value::Int(v)])]
}

fn log_values(client: &mut Client) -> Vec<i64> {
    values(client.query(WireCertainty::Plain, &RaExpr::relation("log")).expect("query log"))
}

fn values(answers: WireAnswers) -> Vec<i64> {
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

/// Poll `f` until it returns `Some`, panicking with `what` on timeout.
fn wait_for<T>(what: &str, timeout: Duration, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn replicas_serve_reads_and_refuse_writes_with_a_redirect() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (pdir, rdir) = (temp_dir("reads-p"), temp_dir("reads-r"));
    let primary =
        Server::start(seed_db(), primary_config(&pdir, ReplMode::Sync { quorum: 1 })).unwrap();
    let paddr = primary.local_addr().to_string();
    let replica = Server::start(seed_db(), replica_config(&rdir, &paddr)).unwrap();

    let mut pc = Client::connect(&paddr).expect("connect primary");
    for i in 1..=5 {
        // Sync mode: each ack means the replica applied and fsync'd the
        // record, so the replica read below needs no settling loop.
        pc.insert("log", row(i)).expect("quorum-acked insert");
    }

    let mut rc = Client::connect(replica.local_addr()).expect("connect replica");
    assert_eq!(log_values(&mut rc), vec![0, 1, 2, 3, 4, 5], "replica serves the acked writes");

    // Writes are refused with the primary's address, verbatim.
    match rc.insert("log", row(99)).expect_err("replicas refuse writes") {
        ClientError::Server { code: ErrorCode::NotPrimary, message } => {
            assert_eq!(message, paddr, "the NotPrimary message is the redirect target");
        }
        other => panic!("expected NotPrimary, got {other}"),
    }

    // Status frames see both sides of the stream.
    let ps = pc.repl_status().expect("primary status");
    assert_eq!(ps.role, ReplRole::Primary);
    assert_eq!(ps.mode, 2, "sync mode");
    assert_eq!(ps.quorum, 1);
    assert_eq!(ps.replicas.len(), 1, "one live subscriber");
    assert_eq!(ps.replicas[0].lag_bytes, 0, "a quorum-acked stream has no lag");
    let rs = rc.repl_status().expect("replica status");
    assert_eq!(rs.role, ReplRole::Replica);
    assert_eq!(rs.primary_addr.as_deref(), Some(paddr.as_str()));
    assert_eq!(rs.term, ps.term);

    drop(pc);
    drop(rc);
    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn a_late_replica_bootstraps_from_checkpoint_and_follows_rotations() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (pdir, rdir) = (temp_dir("boot-p"), temp_dir("boot-r"));
    let mut config = primary_config(&pdir, ReplMode::Async);
    config.checkpoint_every = 4;
    let primary = Server::start(seed_db(), config).unwrap();
    let paddr = primary.local_addr().to_string();

    let mut pc = Client::connect(&paddr).expect("connect primary");
    let mut expected = vec![0i64];
    // Cross checkpoint_every twice, so the newest generation is well past
    // the seed: the late replica must bootstrap, not replay from zero.
    for i in 1..=10 {
        pc.insert("log", row(i)).expect("insert");
        expected.push(i);
    }

    let replica = Server::start(seed_db(), replica_config(&rdir, &paddr)).unwrap();
    let mut rc = Client::connect(replica.local_addr()).expect("connect replica");
    wait_for("the late replica to catch up", Duration::from_secs(5), || {
        (log_values(&mut rc) == expected).then_some(())
    });
    let installed = replica.durable().expect("replica is durable").checkpoints_installed();
    assert_eq!(installed, 1, "exactly one checkpoint bootstrap");

    // Live traffic that crosses another fold: the fold happens inside the
    // insert that crosses `checkpoint_every`, so a streaming replica is
    // always at least one record behind the retirement point and must
    // re-bootstrap from the new generation's checkpoint. Documented cost
    // of folding under write load.
    for i in 11..=12 {
        pc.insert("log", row(i)).expect("insert");
        expected.push(i);
    }
    wait_for("the replica to recover from a mid-stream fold", Duration::from_secs(5), || {
        (log_values(&mut rc) == expected).then_some(())
    });

    // The rows can be visible before the re-bootstrap is counted (the new
    // generation's checkpoint is installed, then recorded): let the count
    // settle before taking it as the baseline below.
    wait_for("the re-bootstrap to be recorded", Duration::from_secs(5), || {
        let installed = replica.durable().expect("replica is durable").checkpoints_installed();
        (installed == 2).then_some(())
    });

    // A fold at quiescence is different: the caught-up subscriber sits
    // exactly at the retired generation's final position, so it follows
    // with a cheap local rotation — no checkpoint transfer.
    let installed = replica.durable().expect("replica is durable").checkpoints_installed();
    primary.durable().expect("primary is durable").checkpoint().expect("quiescent fold");
    for i in 13..=14 {
        pc.insert("log", row(i)).expect("insert");
        expected.push(i);
    }
    wait_for("the replica to follow the quiescent rotation", Duration::from_secs(5), || {
        (log_values(&mut rc) == expected).then_some(())
    });
    assert_eq!(
        replica.durable().expect("replica is durable").checkpoints_installed(),
        installed,
        "a quiescent rotation is a local fold, not a checkpoint transfer"
    );

    drop(pc);
    drop(rc);
    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn a_statement_prepared_on_a_replica_outlives_applied_inserts_and_a_re_bootstrap() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (pdir, rdir) = (temp_dir("prepared-p"), temp_dir("prepared-r"));
    let mut config = primary_config(&pdir, ReplMode::Async);
    config.checkpoint_every = 4;
    let primary = Server::start(seed_db(), config).unwrap();
    let paddr = primary.local_addr().to_string();
    let replica = Server::start(seed_db(), replica_config(&rdir, &paddr)).unwrap();

    let mut pc = Client::connect(&paddr).expect("connect primary");
    let mut rc = Client::connect(replica.local_addr()).expect("connect replica");
    let (stmt, _) = rc.prepare(WireCertainty::Plain, &RaExpr::relation("log")).expect("prepare");
    let planned = rc.stats().expect("replica stats").cache_misses;
    let mut executed = || values(rc.execute(stmt).expect("the prepared statement executes"));

    // An insert applied from the primary reaches the statement as prepared.
    let mut expected = vec![0, 1];
    pc.insert("log", row(1)).expect("insert");
    wait_for("the replica to apply the insert", Duration::from_secs(5), || {
        (executed() == expected).then_some(())
    });

    // The insert that crosses `checkpoint_every` folds the primary's log
    // under the streaming replica, which re-bootstraps from a checkpoint
    // over the same tables: its schema epoch, and the statement, survive.
    let durable = replica.durable().expect("replica is durable");
    let installed = durable.checkpoints_installed();
    for i in 2..=5 {
        pc.insert("log", row(i)).expect("insert");
        expected.push(i);
    }
    wait_for("the re-bootstrap", Duration::from_secs(5), || {
        (durable.checkpoints_installed() > installed).then_some(())
    });
    wait_for("the replica to catch up", Duration::from_secs(5), || {
        (executed() == expected).then_some(())
    });
    let answers = rc.execute(stmt).expect("the statement survives the re-bootstrap");
    assert!(!answers.reprepared);
    assert_eq!(rc.stats().expect("replica stats").cache_misses, planned, "nothing re-planned");

    drop(pc);
    drop(rc);
    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn sync_mode_withholds_acks_without_a_quorum() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (pdir, rdir) = (temp_dir("quorum-p"), temp_dir("quorum-r"));
    let mut config = primary_config(&pdir, ReplMode::Sync { quorum: 1 });
    if let Some(repl) = config.replication.as_mut() {
        repl.ack_timeout_ms = 150;
    }
    let primary = Server::start(seed_db(), config).unwrap();
    let paddr = primary.local_addr().to_string();
    let mut pc = Client::connect(&paddr).expect("connect primary");

    // No replica is subscribed: the write is durable locally but the ack
    // must be withheld — the client sees an honest indeterminate error.
    match pc.insert("log", row(1)).expect_err("no quorum, no ack") {
        ClientError::Server { code: ErrorCode::Internal, message } => {
            assert!(message.contains("replica ack"), "names the missing quorum: {message}");
        }
        other => panic!("expected an Internal quorum error, got {other}"),
    }
    assert_eq!(log_values(&mut pc), vec![0, 1], "the unacked write is still durable locally");

    // Once a replica subscribes, the same configuration acks again.
    let replica = Server::start(seed_db(), replica_config(&rdir, &paddr)).unwrap();
    wait_for("quorum to recover once a replica subscribes", Duration::from_secs(5), || {
        pc.insert("log", row(2)).ok()
    });

    drop(pc);
    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn promote_seals_the_stream_and_turns_the_replica_writable() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (pdir, rdir) = (temp_dir("promote-p"), temp_dir("promote-r"));
    let primary =
        Server::start(seed_db(), primary_config(&pdir, ReplMode::Sync { quorum: 1 })).unwrap();
    let paddr = primary.local_addr().to_string();
    let replica = Server::start(seed_db(), replica_config(&rdir, &paddr)).unwrap();

    let mut pc = Client::connect(&paddr).expect("connect primary");
    for i in 1..=5 {
        pc.insert("log", row(i)).expect("quorum-acked insert");
    }
    let old_term = pc.repl_status().expect("status").term;
    drop(pc);
    primary.shutdown();

    // Operator failover: promote the replica, which seals its apply loop,
    // makes it writable, and bumps the wire-visible term.
    let mut rc = Client::connect(replica.local_addr()).expect("connect replica");
    rc.promote().expect("promote");
    let status = rc.repl_status().expect("status after promote");
    assert_eq!(status.role, ReplRole::Primary);
    assert_eq!(status.term, old_term + 1, "promotion bumps the term");
    assert_eq!(status.primary_addr, None);

    // Every quorum-acked write survived, and the node now takes writes.
    assert_eq!(log_values(&mut rc), vec![0, 1, 2, 3, 4, 5]);
    rc.insert("log", row(6)).expect("the promoted node is writable");
    assert_eq!(log_values(&mut rc), vec![0, 1, 2, 3, 4, 5, 6]);

    // Promotion is idempotent: promoting a primary just acks.
    rc.promote().expect("re-promote is a no-op");
    assert_eq!(rc.repl_status().expect("status").term, old_term + 1);

    drop(rc);
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn graceful_primary_restart_needs_no_rebootstrap() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (pdir, rdir) = (temp_dir("drain-p"), temp_dir("drain-r"));
    let primary = Server::start(seed_db(), primary_config(&pdir, ReplMode::Async)).unwrap();
    let paddr = primary.local_addr().to_string();
    let replica = Server::start(seed_db(), replica_config(&rdir, &paddr)).unwrap();
    let mut rc = Client::connect(replica.local_addr()).expect("connect replica");

    let mut pc = Client::connect(&paddr).expect("connect primary");
    // `Server::start` returns before the replica has subscribed, and a
    // shutdown drains only to subscribers it has.
    wait_for("the replica to subscribe", Duration::from_secs(5), || {
        (pc.repl_status().expect("primary status").replicas.len() == 1).then_some(())
    });
    // A slow replica: every apply stalls, so it is still reading (and still
    // acking) after the primary has sent the last segment of its drain.
    failpoints().arm(FP_REPL_APPLY, FailAction::SlowMs(20), 0, 8);
    let mut expected = vec![0i64];
    for i in 1..=8 {
        // Async mode: these acks do NOT wait for the replica, so some of
        // them are still in flight when the shutdown below begins.
        pc.insert("log", row(i)).expect("insert");
        expected.push(i);
    }
    drop(pc);
    // Graceful shutdown must drain the stream: flush every durable record
    // to the subscriber, send a clean close, and not reset the connection
    // under the replica while it catches up.
    primary.shutdown();
    wait_for("the drained stream to deliver every acked write", Duration::from_secs(5), || {
        (log_values(&mut rc) == expected).then_some(())
    });
    failpoints().disarm_all();
    let installed = replica.durable().expect("replica is durable").checkpoints_installed();

    // Restart the primary on the same address; the replica reconnects and
    // resumes incrementally from its own durable position.
    let mut config = primary_config(&pdir, ReplMode::Async);
    config.addr = paddr.clone();
    let primary = Server::start(seed_db(), config).expect("restart primary on the same address");
    let mut pc = Client::connect(&paddr).expect("reconnect primary");
    assert_eq!(log_values(&mut pc), expected, "the primary recovered its own log");
    for i in 9..=12 {
        pc.insert("log", row(i)).expect("insert after restart");
        expected.push(i);
    }
    wait_for("the reconnected replica to catch up", Duration::from_secs(5), || {
        (log_values(&mut rc) == expected).then_some(())
    });
    assert_eq!(
        replica.durable().expect("replica is durable").checkpoints_installed(),
        installed,
        "a graceful restart never forces the replica back through bootstrap"
    );

    drop(pc);
    drop(rc);
    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn cluster_client_distributes_reads_and_follows_write_redirects() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    let (pdir, r1dir, r2dir) = (temp_dir("cc-p"), temp_dir("cc-r1"), temp_dir("cc-r2"));
    let primary =
        Server::start(seed_db(), primary_config(&pdir, ReplMode::Sync { quorum: 1 })).unwrap();
    let paddr = primary.local_addr().to_string();
    let replica1 = Server::start(seed_db(), replica_config(&r1dir, &paddr)).unwrap();
    let replica2 = Server::start(seed_db(), replica_config(&r2dir, &paddr)).unwrap();
    let r1addr = replica1.local_addr().to_string();
    let r2addr = replica2.local_addr().to_string();

    // Replicas listed first: the first write lands on a replica and must
    // follow the NotPrimary redirect to the real primary.
    let mut cluster = ClusterClient::new(vec![r1addr, r2addr, paddr.clone()]);
    cluster.insert("log", row(1)).expect("redirected insert");
    assert_eq!(cluster.redirects(), 1, "one NotPrimary redirect was followed");
    assert_eq!(cluster.primary_endpoint(), paddr, "the redirect target is remembered");
    cluster.insert("log", row(2)).expect("subsequent inserts go straight to the primary");
    assert_eq!(cluster.redirects(), 1);

    // Reads round-robin across all three nodes. Sync acks mean at least one
    // replica is current; poll until both are, then spread reads.
    let expected = vec![0i64, 1, 2];
    let mut checks =
        [&replica1, &replica2].map(|r| Client::connect(r.local_addr()).expect("connect"));
    wait_for("both replicas to converge", Duration::from_secs(5), || {
        checks.iter_mut().all(|c| log_values(c) == expected).then_some(())
    });
    drop(checks);
    for _ in 0..6 {
        let answers = cluster.query(WireCertainty::Plain, &RaExpr::relation("log")).expect("read");
        assert_eq!(answers.body.plain.expect("plain").len(), expected.len());
    }

    // Kill one replica: reads fail over to live nodes without surfacing.
    replica1.shutdown();
    for _ in 0..6 {
        cluster.query(WireCertainty::Plain, &RaExpr::relation("log")).expect("failover read");
    }
    assert!(cluster.read_failovers() >= 1, "at least one read failed over the dead node");

    // Probing finds the primary by role and term.
    assert_eq!(cluster.probe_primary().expect("probe"), paddr);

    replica2.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&r1dir);
    let _ = std::fs::remove_dir_all(&r2dir);
}

#[test]
fn stream_faults_resubscribe_without_loss_or_rebootstrap() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    failpoints().disarm_all();
    let (pdir, rdir) = (temp_dir("fault-p"), temp_dir("fault-r"));
    let primary =
        Server::start(seed_db(), primary_config(&pdir, ReplMode::Sync { quorum: 1 })).unwrap();
    let paddr = primary.local_addr().to_string();
    let replica = Server::start(seed_db(), replica_config(&rdir, &paddr)).unwrap();
    let mut pc = Client::connect(&paddr).expect("connect primary");

    // Establish the stream (and the one bootstrap) with a clean write.
    pc.insert("log", row(1)).expect("baseline insert");
    let installed = replica.durable().expect("replica is durable").checkpoints_installed();

    // A send fault severs the subscriber mid-stream; the replica must
    // re-subscribe and the quorum-gated insert still completes.
    failpoints().arm(FP_REPL_SEND, FailAction::Error, 0, 1);
    pc.insert("log", row(2)).expect("insert survives a severed stream");

    // A torn segment: a prefix of the frame reaches the wire, then the
    // socket dies. The replica's framing layer discards it and recovers.
    failpoints().arm(FP_REPL_SEND, FailAction::Torn(12), 0, 1);
    pc.insert("log", row(3)).expect("insert survives a torn segment");

    // An apply fault on the replica side: the segment is refused before it
    // touches the WAL, the stream drops, and the retry applies it cleanly.
    failpoints().arm(FP_REPL_APPLY, FailAction::Error, 0, 1);
    pc.insert("log", row(4)).expect("insert survives an apply fault");
    failpoints().disarm_all();

    let mut rc = Client::connect(replica.local_addr()).expect("connect replica");
    assert_eq!(log_values(&mut rc), vec![0, 1, 2, 3, 4], "no write lost, none duplicated");
    assert_eq!(
        replica.durable().expect("replica is durable").checkpoints_installed(),
        installed,
        "faults re-subscribe from the durable position, not through bootstrap"
    );

    drop(pc);
    drop(rc);
    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    let _ = std::fs::remove_dir_all(&rdir);
}

#[test]
fn server_failpoints_inject_failures_above_the_storage_layer() {
    let _gate = GATE.lock().unwrap_or_else(|e| e.into_inner());
    failpoints().disarm_all();
    let dir = temp_dir("serverfp");
    let server = Server::start(seed_db(), node_config(&dir)).unwrap();
    let mut client =
        Client::connect(server.local_addr()).expect("connect").with_retry(RetryPolicy {
            base_backoff_ms: 1,
            max_backoff_ms: 5,
            ..RetryPolicy::default()
        });
    client.set_op_timeout(Some(Duration::from_millis(500))).expect("op timeout");

    // server.admit: the request is shed as Overloaded before touching any
    // state; the client's retry policy resends and succeeds.
    failpoints().arm(FP_ADMIT, FailAction::Error, 0, 1);
    client.query(WireCertainty::Plain, &RaExpr::relation("log")).expect("retried past the shed");
    assert_eq!(client.retries(), 1);

    // server.respond: the response frame is dropped as if the socket died
    // after execution; the idempotent ping times out and is resent.
    failpoints().arm(FP_RESPOND, FailAction::Error, 0, 1);
    client.ping().expect("retried past the dropped response");
    assert_eq!(client.retries(), 2);

    // server.publish: the insert is durable and published but its ack is
    // withheld — the canonical indeterminate write. The error is honest
    // and the row is actually there.
    failpoints().arm(FP_PUBLISH, FailAction::Error, 0, 1);
    match client.insert("log", row(7)).expect_err("ack withheld") {
        ClientError::Server { code: ErrorCode::Internal, message } => {
            assert!(message.contains("server.publish"), "names the injection site: {message}");
        }
        other => panic!("expected an Internal error, got {other}"),
    }
    failpoints().disarm_all();
    assert_eq!(log_values(&mut client), vec![0, 7], "the unacked write is durable");

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
