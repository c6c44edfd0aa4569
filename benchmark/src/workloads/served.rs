//! The two served workloads: an in-process `Server` on a loopback socket,
//! `C` sync `Client` connections, server-side prepared statements.
//!
//! `served-read` is the only workload where the server layer (protocol,
//! queue hand-off, per-request session build, snapshot pin, answer encode,
//! socket) is a large share of an operation: about half of `point`, most of
//! `bulk`. `heavy` occupies an executor, so head-of-line blocking shows in
//! `point`'s tail. It runs the engine `tpch-prepared` runs, so a server-only
//! change predicts no move there.
//!
//! `served-durable-mix` puts writes beside reads on the same layers: every
//! insert copies `lineitem` on write in `data::snapshot`, appends and fsyncs
//! in `data::wal`, and bumps the schema epoch, which invalidates the shared
//! plan cache, so the next read of every prepared class pays a transparent
//! re-prepare. A read-path gain that costs the write path (or the reverse)
//! shows here and nowhere else.

use super::layers;
use super::{
    fingerprint, generate, push_end_to_end, push_instance_layers, push_trace, reference_check,
    set_up_repeatedly, traced_round, Class, Data, Fingerprint, Rng, RunConfig, SCALE, SCALE_ADHOC,
    WARMUP_EXECUTIONS,
};
use crate::env::{peak_rss_mb, reset_peak_rss};
use crate::pace::OpenLoop;
use crate::report::RunResult;
use crate::samples::{ops_per_s, Samples, ROUNDS};
use crate::stats::{median, percentile, Agg};
use crate::trace::{self, Span, Tracer};
use certus::algebra::builder::neq_const;
use certus::data::wal;
use certus::data::Tuple;
use certus::tpch::{q2, q3, q4};
use certus::{Certainty, Database, RaExpr, Session};
use certus_server::protocol::ServerStats;
use certus_server::{answer_body, Client, Server, ServerConfig, WireAnswers, WireCertainty};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SET_UPS: usize = 3;

/// The query classes, all certain-answer queries, by the name the per-layer
/// metrics use.
const POINT: usize = 0;
const SHORT: usize = 1;
const BULK: usize = 2;
const HEAVY: usize = 3;
const CLASS_NAMES: [&str; 4] = ["point", "short", "bulk", "heavy"];

/// Percent of operations per class (point, short, bulk, heavy).
const MIX_READ: [u64; 4] = [40, 40, 10, 10];
const MIX_DURABLE: [u64; 4] = [50, 50, 0, 0];

/// One 4-row `lineitem` insert is due every 50 ms (open loop).
const INSERT_INTERVAL: Duration = Duration::from_millis(50);
const ROWS_PER_INSERT: usize = 4;
/// Fold the WAL into a checkpoint after this many inserts. One insert in ten
/// pays for a checkpoint, which puts the checkpointing insert well inside
/// `insert_ms_p95` — at one in 32 it sat on the percentile's edge, and the
/// metric flipped between the two kinds of insert from run to run. A
/// 20-second run (400 inserts) completes 40 checkpoint cycles.
const CHECKPOINT_EVERY: u64 = 10;
const RECOVERIES: usize = 15;

/// point = Q2⁺, short = Q3⁺, bulk = `CertainPlus` of
/// σ(o_orderstatus <> 'F')(orders) — a cheap plan with a ~1.5k-row answer —
/// and heavy = Q4⁺.
pub fn served_classes(data: &Data) -> Vec<Class> {
    let params = data.workload.params(&data.db, 0);
    let bulk = RaExpr::relation("orders").select(neq_const("o_orderstatus", "F"));
    [q2(&params), q3(&params), bulk, q4(&params)]
        .into_iter()
        .zip(CLASS_NAMES)
        .map(|(query, name)| Class { name, query, certainty: Certainty::CertainPlus })
        .collect()
}

/// The classes a mix draws.
fn drawn(mix: &[u64; 4]) -> Vec<usize> {
    (0..mix.len()).filter(|&class| mix[class] > 0).collect()
}

struct SetUp {
    data_ms: (f64, f64),
    db: Arc<Database>,
    classes: Vec<Class>,
    server: Server,
    clients: Vec<Client>,
    /// `statements[client][class]`: server-side prepared statement ids.
    statements: Vec<Vec<u64>>,
    /// Durable mix only: the rows of each insert, and the data directory.
    inserts: Vec<Vec<Tuple>>,
    dir: Option<PathBuf>,
}

fn server_config(cfg: &RunConfig, dir: Option<&Path>) -> ServerConfig {
    ServerConfig {
        executors: cfg.c,
        // One engine thread per request: medians measure the program, not
        // the scheduler.
        engine_threads: 1,
        data_dir: dir.map(Path::to_path_buf),
        checkpoint_every: CHECKPOINT_EVERY,
        ..ServerConfig::default()
    }
}

/// dbgen, null injection, server start, `connections` clients, server-side
/// prepare of the four classes on each, warm-up by count. With `durable`,
/// also the rows to insert — taken from a second instance, so nulls arrive at
/// the same rate; `--seed` decides which of its rows — and a fresh data
/// directory.
fn set_up(cfg: &RunConfig, connections: usize, durable: Option<(&Path, usize)>) -> SetUp {
    let data = generate(SCALE, 0);
    let classes = served_classes(&data);
    let (inserts, dir) = match durable {
        Some((dir, count)) => {
            let _ = std::fs::remove_dir_all(dir);
            let donor = generate(SCALE, 1).db;
            let rows = donor.relation("lineitem").expect("lineitem").tuples();
            assert!(rows.len() >= count * ROWS_PER_INSERT, "donor instance too small");
            let mut batches: Vec<Vec<Tuple>> =
                rows.chunks_exact(ROWS_PER_INSERT).map(<[Tuple]>::to_vec).collect();
            Rng::new(cfg.seed).shuffle(&mut batches);
            batches.truncate(count);
            (batches, Some(dir.to_path_buf()))
        }
        None => (Vec::new(), None),
    };
    let server =
        Server::start(data.db.clone(), server_config(cfg, dir.as_deref())).expect("server starts");
    let mut clients: Vec<Client> = (0..connections)
        .map(|_| Client::connect(server.local_addr()).expect("client connects"))
        .collect();
    let statements: Vec<Vec<u64>> = clients
        .iter_mut()
        .map(|client| {
            classes
                .iter()
                .map(|c| {
                    client.prepare(WireCertainty::from(c.certainty), &c.query).expect("prepare").0
                })
                .collect()
        })
        .collect();
    for k in 0..WARMUP_EXECUTIONS {
        let who = k % connections;
        for &statement in &statements[who] {
            black_box(clients[who].execute(statement).expect("warm-up execution"));
        }
    }
    SetUp {
        data_ms: (data.dbgen_ms, data.inject_ms),
        db: Arc::new(data.db),
        classes,
        server,
        clients,
        statements,
        inserts,
        dir,
    }
}

fn tear_down(s: SetUp) {
    drop(s.clients);
    drop(s.server);
    if let Some(dir) = s.dir {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What a class's answer must be. `None`: the class reads `lineitem`, which
/// the durable mix's writer is changing, so its answers are checked at the
/// quiescent points only.
type Expected = Vec<Option<Fingerprint>>;

fn fingerprint_wire(answers: &WireAnswers) -> Option<Fingerprint> {
    answers.body.certain.as_ref().map(fingerprint)
}

/// Byte check at a quiescent point: every class's served answer against
/// `answer_body(local).encode()` of a local session over `db`.
fn byte_check(
    client: &mut Client,
    statements: &[u64],
    classes: &[Class],
    db: &Arc<Database>,
) -> Result<(), String> {
    let local = Session::builder_over(db.clone()).threads(1).build();
    for (class, &statement) in classes.iter().zip(statements) {
        let want = local.execute(&class.query, class.certainty).map_err(|e| e.to_string())?;
        let got = client.execute(statement).map_err(|e| format!("{}: {e}", class.name))?;
        if got.canonical_bytes() != answer_body(&want).encode() {
            return Err(format!("{}: served answer differs from local execution", class.name));
        }
    }
    Ok(())
}

/// The scale-0.002 expectations, after the set-up checks: the reference
/// evaluator on the small instance (at this scale the package's tests run it),
/// and a byte check of every class against local execution.
fn expectations(s: &mut SetUp) -> Result<Vec<Fingerprint>, String> {
    reference_check(SCALE_ADHOC, served_classes)?;
    byte_check(&mut s.clients[0], &s.statements[0], &s.classes, &s.db)?;
    let local = Session::builder_over(s.db.clone()).threads(1).build();
    s.classes
        .iter()
        .map(|class| {
            let answers =
                local.execute(&class.query, class.certainty).map_err(|e| e.to_string())?;
            Ok(fingerprint(answers.relation()))
        })
        .collect()
}

/// What one reader measured — or, merged, what all of them did.
struct Reads {
    samples: Samples,
    attempted: u64,
    failed: u64,
    /// Round trips of reads the server answered with `reprepared = true`.
    replan_ms: Vec<f64>,
    spans: Vec<Span>,
}

impl Reads {
    fn new() -> Reads {
        Reads {
            samples: Samples::new(CLASS_NAMES.to_vec()),
            attempted: 0,
            failed: 0,
            replan_ms: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn absorb(&mut self, other: Reads) {
        self.samples.merge(other.samples);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.replan_ms.extend(other.replan_ms);
        self.spans.extend(other.spans);
    }
}

struct ReaderPlan<'a> {
    statements: &'a [u64],
    mix: &'a [u64; 4],
    expected: &'a Expected,
    start: Instant,
    round_len: Duration,
    /// Readers stop at the deadline, or when the flag is raised.
    deadline: Instant,
    stop: &'a AtomicBool,
    cfg: &'a RunConfig,
    lane: u32,
}

/// A caller's next hundred classes: the mix's exact shares in a seeded order.
/// Drawing each class on its own would let the number of 45 ms `heavy` reads,
/// which decides `ops_per_s`, vary by a few percent with the seed.
fn deal(mix: &[u64; 4], rng: &mut Rng) -> Vec<usize> {
    let mut deck: Vec<usize> =
        (0..mix.len()).flat_map(|class| std::iter::repeat_n(class, mix[class] as usize)).collect();
    rng.shuffle(&mut deck);
    deck
}

/// One closed-loop caller: draw a class, execute its statement, wait for the
/// reply, check it, repeat.
fn reader(client: &mut Client, plan: &ReaderPlan<'_>) -> Reads {
    let mut rng = Rng::new(plan.cfg.seed.wrapping_mul(0x1_0000).wrapping_add(plan.lane as u64));
    let mut tracer = Tracer::new(plan.start, plan.lane);
    let mut out = Reads::new();
    let mut deck = Vec::new();
    let mut op = (plan.lane as u64) << 32;
    while Instant::now() < plan.deadline && !plan.stop.load(Ordering::Relaxed) {
        if deck.is_empty() {
            deck = deal(plan.mix, &mut rng);
        }
        let class = deck.pop().expect("a dealt deck");
        let round = (plan.start.elapsed().as_nanos() / plan.round_len.as_nanos()) as usize;
        op += 1;
        let span = traced_round(plan.cfg, round)
            .then(|| tracer.begin("client.request", CLASS_NAMES[class], 0, op));
        let t = Instant::now();
        let reply = client.execute(plan.statements[class]);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if let Some(span) = span {
            tracer.end(span);
        }
        out.attempted += 1;
        let correct = reply.as_ref().is_ok_and(|answers| match plan.expected[class] {
            Some(want) => fingerprint_wire(answers) == Some(want),
            None => true,
        });
        if correct {
            out.samples.push(class, round, ms);
            if reply.is_ok_and(|a| a.reprepared) {
                out.replan_ms.push(ms);
            }
        } else {
            out.failed += 1;
        }
    }
    out.spans = tracer.into_spans();
    out
}

/// Deltas of the `Stats` frame over the measured interval.
struct StatsDelta {
    /// Share of plan-cache lookups that hit; 1 when there was no lookup
    /// (executing a prepared statement that is still valid needs none).
    cache_hit_share: f64,
    cache_lookups: u64,
    stale_replans: u64,
    rejected: u64,
}

fn stats_delta(before: &ServerStats, after: &ServerStats) -> StatsDelta {
    let hits = after.cache_hits - before.cache_hits;
    let misses = after.cache_misses - before.cache_misses;
    StatsDelta {
        cache_hit_share: if hits + misses == 0 {
            1.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        cache_lookups: hits + misses,
        stale_replans: after.stale_replans - before.stale_replans,
        rejected: after.rejected - before.rejected,
    }
}

/// What the measured interval yields besides latencies.
struct Interval {
    /// Operations per round, by start time, and a round's nominal length.
    ops: Vec<u64>,
    round_s: f64,
    /// `VmHWM` when the interval ended.
    peak_rss_mb: f64,
}

impl Interval {
    fn ops_per_s(&self) -> Agg {
        ops_per_s(&self.ops, &[self.round_s; ROUNDS])
    }
}

/// The `Stats` frame figures both served workloads report from a traced run.
fn push_stats_layers(result: &mut RunResult, stats: &StatsDelta) {
    result.push("plan.cache_hit_share", Agg::exact(stats.cache_hit_share, stats.cache_lookups));
    result.push("server.stale_replans", Agg::exact(stats.stale_replans as f64, 1));
    result.push("server.rejected", Agg::exact(stats.rejected as f64, 1));
}

// ---------------------------------------------------------------------------
// served-read

pub fn run_read(cfg: &RunConfig) -> RunResult {
    let mut result = cfg.result("served-read", SCALE);
    result.note(format!(
        "non-durable Server, {c} executors, 1 engine thread; {c} closed-loop connections; mix \
         point/short/bulk/heavy = {MIX_READ:?}%; {SET_UPS} set-ups per run",
        c = cfg.c
    ));

    let mut data_ms = Vec::new();
    let (mut s, setup_s) = set_up_repeatedly(
        SET_UPS,
        |_| {
            let s = set_up(cfg, cfg.c, None);
            data_ms.push(s.data_ms);
            s
        },
        tear_down,
    );
    let expected: Expected = match expectations(&mut s) {
        Ok(expected) => expected.into_iter().map(Some).collect(),
        Err(why) => {
            tear_down(s);
            return result.fail_set_up(&why);
        }
    };

    let ping_rtt_us = cfg.traced.then(|| {
        let client = &mut s.clients[0];
        layers::time_us(2000, || {
            black_box(client.ping().expect("ping"));
        })
    });
    let stats_before = s.clients[0].stats().expect("stats");
    reset_peak_rss();
    let start = Instant::now();
    let interval = Duration::from_secs(cfg.seconds);
    let stop = AtomicBool::new(false);
    let mut readers = Reads::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .zip(&s.statements)
            .enumerate()
            .map(|(lane, (client, statements))| {
                let plan = ReaderPlan {
                    statements,
                    mix: &MIX_READ,
                    expected: &expected,
                    start,
                    round_len: interval / ROUNDS as u32,
                    deadline: start + interval,
                    stop: &stop,
                    cfg,
                    lane: lane as u32,
                };
                scope.spawn(move || reader(client, &plan))
            })
            .collect();
        for handle in handles {
            readers.absorb(handle.join().expect("reader thread"));
        }
    });
    let samples = &readers.samples;
    // Requests that started in the last round may finish after it: count a
    // round's operations by start time, against the round's nominal length.
    let measured = Interval {
        ops: (0..ROUNDS).map(|r| samples.in_round(r)).collect(),
        round_s: interval.as_secs_f64() / ROUNDS as f64,
        peak_rss_mb: peak_rss_mb(),
    };
    let stats = stats_delta(&stats_before, &s.clients[0].stats().expect("stats"));
    result.attempted = readers.attempted;
    result.failed = readers.failed;

    let cert = drawn(&MIX_READ);
    if !cfg.traced {
        let rate = measured.ops_per_s();
        let cert_ms_geomean = samples.geomean_of_medians(&cert);
        push_end_to_end(&mut result, setup_s, cert_ms_geomean, rate, measured.peak_rss_mb);
        result.note(format!(
            "plan cache hit share {:.4} of {} lookups, stale replans {}, rejected {}",
            stats.cache_hit_share, stats.cache_lookups, stats.stale_replans, stats.rejected
        ));
    }
    // The end-to-end metric of the served workloads only.
    result.push("point_ms_p95", samples.p95(POINT));
    if !cfg.traced {
        tear_down(s);
        return result;
    }

    push_instance_layers(&mut result, &s.db, &data_ms);
    push_stats_layers(&mut result, &stats);
    push_trace(&mut result, cfg, samples, &cert, &readers.spans);
    result.push("server.ping_rtt_us", ping_rtt_us.expect("measured in traced runs"));
    let (encode, decode) = layers::request_codec_us(s.statements[0][POINT]);
    result.push("server.request_encode_us", encode);
    result.push("server.request_decode_us", decode);
    result.push("data.snapshot_pin_ns", layers::snapshot_pin_ns(&s.db));
    result
        .push("certus.session_overhead_us", layers::session_overhead_us(&s.db, &s.classes[POINT]));

    // Replay each certain-answer class locally to size the parts of its
    // round trip: execution, answer encode, answer decode. What is left is
    // queue wait + thread hand-off + socket, at `C` clients — by
    // construction the parts and the residual add up to the round trip.
    let local = Session::builder_over(s.db.clone()).threads(1).build();
    let round_trips = trace::self_times_by_name(&readers.spans);
    let mut prepared = Vec::new();
    for (class, name) in CLASS_NAMES.into_iter().enumerate() {
        let query =
            local.prepare(&s.classes[class].query, Certainty::CertainPlus).expect("prepare");
        let reps = if class == HEAVY { 10 } else { 50 };
        let execute_ms = layers::time_us(reps, || {
            black_box(local.execute_prepared(&query).expect("execution"));
        })
        .scaled(1e-3);
        let answers = local.execute_prepared(&query).expect("execution");
        let codec = layers::answer_codec(&answers, reps);
        let rtt_ns = &round_trips[&("client.request", name)];
        let rtt = Agg::of_samples(rtt_ns).scaled(1e-6);
        let parts_ms = execute_ms.value + (codec.encode_us.value + codec.decode_us.value) * 1e-3;
        result.push(&format!("server.answer_encode_us.{name}"), codec.encode_us);
        result.push(&format!("server.answer_decode_us.{name}"), codec.decode_us);
        result.push(&format!("server.answer_bytes.{name}"), Agg::exact(codec.bytes as f64, 1));
        result.push(&format!("server.residual_ms.{name}"), rtt.minus(parts_ms));
        match name {
            "point" => result.push("engine.execute_ms.q2p", execute_ms),
            "short" => result.push("engine.execute_ms.q3p", execute_ms),
            "heavy" => result.push("engine.execute_ms.q4p", execute_ms),
            _ => {}
        }
        prepared.push(query);
    }
    let by_ref: Vec<_> = prepared.iter().collect();
    result.push("obs.profiled_overhead_pct", layers::profiled_overhead_pct(&local, &by_ref, 7));
    tear_down(s);
    result
}

// ---------------------------------------------------------------------------
// served-durable-mix

struct WriterOut {
    /// Insert latency from due time, per round of the schedule.
    latency: Samples,
    lateness_ms: Vec<f64>,
    acked: Vec<usize>,
    failed: u64,
    spans: Vec<Span>,
}

/// The open-loop writer: insert `i` is due at `i * 50 ms` whether or not the
/// previous one has been acknowledged; with one sync connection a late ack
/// delays the next send, which the latency (measured from the due time)
/// charges and the lateness reports.
fn writer(
    client: &mut Client,
    inserts: &[Vec<Tuple>],
    start: Instant,
    cfg: &RunConfig,
    lane: u32,
) -> WriterOut {
    let clock = OpenLoop { interval_ns: INSERT_INTERVAL.as_nanos() as u64 };
    let per_round = inserts.len().div_ceil(ROUNDS);
    let mut out = WriterOut {
        latency: Samples::new(vec!["insert"]),
        lateness_ms: Vec::new(),
        acked: Vec::new(),
        failed: 0,
        spans: Vec::new(),
    };
    let mut tracer = Tracer::new(start, lane);
    for (i, rows) in inserts.iter().enumerate() {
        clock.wait_until_due(start, i as u64);
        let round = i / per_round;
        let span = traced_round(cfg, round)
            .then(|| tracer.begin("client.insert", "insert", 0, ((lane as u64) << 32) + i as u64));
        let sent_ns = start.elapsed().as_nanos() as u64;
        let reply = client.insert("lineitem", rows.clone());
        let done_ns = start.elapsed().as_nanos() as u64;
        if let Some(span) = span {
            tracer.end(span);
        }
        let timing = clock.account(i as u64, sent_ns, done_ns);
        out.lateness_ms.push(timing.lateness_ns as f64 * 1e-6);
        match reply {
            Ok(_) => {
                out.acked.push(i);
                out.latency.push(0, round, timing.latency_ns as f64 * 1e-6);
            }
            Err(_) => out.failed += 1,
        }
    }
    out.spans = tracer.into_spans();
    out
}

pub fn run_durable_mix(cfg: &RunConfig) -> RunResult {
    let mut result = cfg.result("served-durable-mix", SCALE);
    // One connection writes; the others read. At least one of each.
    let connections = cfg.c.max(2);
    let n_inserts = (cfg.seconds * 1000 / INSERT_INTERVAL.as_millis() as u64) as usize;
    result.note(format!(
        "durable Server (flush policy: fsync per insert, before the ack), checkpoint every \
         {CHECKPOINT_EVERY} inserts, {} executors, 1 engine thread; 1 open-loop writer: \
         {n_inserts} inserts of {ROWS_PER_INSERT} lineitem rows, one due every {} ms; {} closed-loop \
         readers, mix point/short/bulk/heavy = {MIX_DURABLE:?}%; fsync on this sandbox is cheap, \
         so insert_ms_* are the sandbox's numbers, not a device's",
        cfg.c,
        INSERT_INTERVAL.as_millis(),
        connections - 1
    ));
    let dir = cfg.out_dir.join(format!("tmp/durable-{}", std::process::id()));

    let mut data_ms = Vec::new();
    let (mut s, setup_s) = set_up_repeatedly(
        SET_UPS,
        |_| {
            let s = set_up(cfg, connections, Some((&dir, n_inserts)));
            data_ms.push(s.data_ms);
            s
        },
        tear_down,
    );
    // Quiescent point one: before the first insert.
    let expected: Expected = match expectations(&mut s) {
        // Q3 and Q4 read `lineitem`, which the writer grows; Q2 and the
        // orders scan do not, and are checked on every answer.
        Ok(expected) => expected
            .into_iter()
            .enumerate()
            .map(|(class, want)| (class == POINT || class == BULK).then_some(want))
            .collect(),
        Err(why) => {
            tear_down(s);
            return result.fail_set_up(&why);
        }
    };

    let durable = s.server.durable().expect("a durable server").clone();
    let generation_before = durable.position().seq;
    let stats_before = s.clients[0].stats().expect("stats");
    reset_peak_rss();
    let start = Instant::now();
    let interval = INSERT_INTERVAL * n_inserts as u32;
    let stop = AtomicBool::new(false);
    let mut readers = Reads::new();
    let (writer_client, reader_clients) = s.clients.split_first_mut().expect("connections >= 2");
    let written = std::thread::scope(|scope| {
        let handles: Vec<_> = reader_clients
            .iter_mut()
            .zip(&s.statements[1..])
            .enumerate()
            .map(|(i, (client, statements))| {
                let plan = ReaderPlan {
                    statements,
                    mix: &MIX_DURABLE,
                    expected: &expected,
                    start,
                    round_len: interval / ROUNDS as u32,
                    // The writer's schedule ends the run.
                    deadline: start + interval * 2,
                    stop: &stop,
                    cfg,
                    lane: i as u32 + 1,
                };
                scope.spawn(move || reader(client, &plan))
            })
            .collect();
        let written = writer(writer_client, &s.inserts, start, cfg, 0);
        stop.store(true, Ordering::Relaxed);
        for handle in handles {
            readers.absorb(handle.join().expect("reader thread"));
        }
        written
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();
    let stats = stats_delta(&stats_before, &s.clients[0].stats().expect("stats"));
    let checkpoints = durable.position().seq - generation_before;
    drop(durable);
    let samples = &readers.samples;
    result.attempted = readers.attempted + s.inserts.len() as u64;
    result.failed = readers.failed + written.failed;

    // The local mirror: the base instance plus exactly the acked inserts.
    let mut mirror = (*s.db).clone();
    for &i in &written.acked {
        let lineitem = mirror.relation_mut("lineitem").expect("lineitem");
        for row in &s.inserts[i] {
            lineitem.insert_values(row.values().to_vec()).expect("arity");
        }
    }
    let mirror = Arc::new(mirror);

    // Quiescent point two: after the last insert; then the crash (the server
    // is dropped without a drain), timed recoveries, and a restart whose
    // state must be the mirror's, byte for byte.
    let mut check = byte_check(&mut s.clients[0], &s.statements[0], &s.classes, &mirror);
    let SetUp { server, clients, classes, db, inserts, .. } = s;
    drop(clients);
    drop(server);
    let recovery_ms = layers::time_us(RECOVERIES, || {
        black_box(wal::recover(&dir).expect("recover").expect("a checkpoint to recover from"));
    })
    .scaled(1e-3);
    if check.is_ok() {
        check = check_restart(cfg, &dir, &mirror);
    }
    if let Err(why) = check {
        result.note(format!("INCORRECT: {why}"));
        result.failed += 1;
    }
    let _ = std::fs::remove_dir_all(&dir);
    // Gone too if nothing else is in it.
    let _ = std::fs::remove_dir(cfg.out_dir.join("tmp"));

    let mut lateness = written.lateness_ms.clone();
    crate::stats::sort(&mut lateness);
    let lateness_p95 = percentile(&lateness, 95.0);
    result.note(format!(
        "{} of {} inserts acked; {checkpoints} checkpoints completed; generator lateness p50 {:.3} ms, \
         p95 {lateness_p95:.3} ms; plan cache hit share {:.4} of {} lookups, stale replans {}, \
         rejected {}; measured {elapsed_s:.2} s",
        written.acked.len(),
        inserts.len(),
        median(&lateness),
        stats.cache_hit_share,
        stats.cache_lookups,
        stats.stale_replans,
        stats.rejected
    ));
    let insert_p50 = written.latency.class_median(0);
    let insert_p95 = written.latency.p95(0);
    // Reads that started after the last due insert count into the last round.
    let measured = Interval {
        ops: (0..ROUNDS).map(|r| samples.in_round(r) + written.latency.in_round(r)).collect(),
        round_s: interval.as_secs_f64() / ROUNDS as f64,
        peak_rss_mb,
    };

    let cert = drawn(&MIX_DURABLE);
    if !cfg.traced {
        let rate = measured.ops_per_s();
        let cert_ms_geomean = samples.geomean_of_medians(&cert);
        push_end_to_end(&mut result, setup_s, cert_ms_geomean, rate, measured.peak_rss_mb);
    }
    // The end-to-end metrics of the served workloads only, and of this one.
    result.push("point_ms_p95", samples.p95(POINT));
    result.push("insert_ms_p50", insert_p50);
    result.push("insert_ms_p95", insert_p95);
    result.push("recovery_ms", recovery_ms);
    if !cfg.traced {
        return result;
    }

    let mut spans = readers.spans;
    spans.extend(written.spans);
    push_instance_layers(&mut result, &db, &data_ms);
    push_stats_layers(&mut result, &stats);
    push_trace(&mut result, cfg, samples, &cert, &spans);
    result.push("data.wal_checkpoints", Agg::exact(checkpoints as f64, 1));
    result.push("bench.insert_lateness_ms_p95", Agg::exact(lateness_p95, lateness.len() as u64));
    result.push("server.replan_read_ms", Agg::of_samples(&readers.replan_ms));

    // The write path's layers called directly, on a store of their own.
    let wal = layers::wal_metrics(
        &cfg.out_dir.join(format!("tmp/wal-{}", std::process::id())),
        &db,
        &inserts,
    );
    result.push("data.wal_insert_us", wal.insert_us);
    result.push("data.wal_record_encode_us", wal.record_encode_us);
    result.push("data.wal_bytes_per_user_byte", wal.bytes_per_user_byte);
    result.push("data.wal_checkpoint_ms", wal.checkpoint_ms);
    result.push("data.checkpoint_bytes", wal.checkpoint_bytes);
    result.push("data.wal_recover_ms", wal.recover_ms);
    result.push("data.snapshot_update_us", layers::snapshot_update_us(&db, &inserts));
    // What every insert costs the next read of each prepared class.
    let cert: Vec<&Class> = [POINT, SHORT].iter().map(|&c| &classes[c]).collect();
    let (cold, hit) = layers::prepare_cold_hit_us(&db, &cert);
    result.push("certus.prepare_cold_us", cold);
    result.push("certus.prepare_hit_us", hit);
    result
}

/// Start a new server on the crashed directory and compare every table it
/// serves, byte for byte, with the mirror's.
fn check_restart(cfg: &RunConfig, dir: &Path, mirror: &Arc<Database>) -> Result<(), String> {
    let server =
        Server::start(Database::new(), server_config(cfg, Some(dir))).map_err(|e| e.to_string())?;
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    let local = Session::builder_over(mirror.clone()).threads(1).build();
    for table in mirror.table_names() {
        let scan = RaExpr::relation(table);
        let got = client.query(WireCertainty::Plain, &scan).map_err(|e| format!("{table}: {e}"))?;
        let want = local.execute(&scan, Certainty::Plain).map_err(|e| e.to_string())?;
        if got.canonical_bytes() != answer_body(&want).encode() {
            return Err(format!(
                "{table}: recovered table differs from base + acked rows ({} vs {} rows)",
                got.body.plain.as_ref().map_or(0, |r| r.len()),
                want.len()
            ));
        }
    }
    Ok(())
}
