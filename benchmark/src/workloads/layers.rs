//! Per-layer measurements: the explicit prepare chain `Session::prepare`
//! wraps, taken apart under spans, and the timed public calls into single
//! layers that the traced runs report. Every function here times a public
//! entry point on the workload's own inputs; nothing reaches into a crate.

use super::{ms_since, Class};
use crate::stats::{geomean, median, Agg};
use crate::trace::{SpanId, Tracer};
use certus::data::codec::put_tuple;
use certus::data::snapshot::SnapshotStore;
use certus::data::wal::{self, DurableStore, WalRecord};
use certus::data::Tuple;
use certus::engine::{CompiledPlan, Engine, EngineConfig};
use certus::plan::physical::{
    heuristic_plan_with, JoinAlgo, PhysicalExpr, PhysicalPlanner, SemiAlgo,
};
use certus::plan::{Parallelism, PassManager, PassTrace, StatisticsCatalog};
use certus::{
    CertainRewriter, Certainty, Database, NullSemantics, PreparedQuery, QueryProfile, RaExpr,
    Relation, Session,
};
use certus_server::answer_body;
use certus_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, Request, Response,
};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Median of `reps` individually timed calls, in microseconds.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> Agg {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    Agg::of_samples(&samples)
}

/// For calls too short to time one by one: median over `reps` batches of the
/// per-call time, in nanoseconds.
pub fn time_batched_ns(reps: usize, batch: usize, mut f: impl FnMut()) -> Agg {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / batch as f64
        })
        .collect();
    Agg { n: (reps * batch) as u64, ..Agg::of_samples(&samples) }
}

// ---------------------------------------------------------------------------
// The prepare chain.

/// What the explicit chain produced for one class.
pub struct ChainPlan {
    pub physical: PhysicalExpr,
    pub compiled: CompiledPlan,
    /// Operator nodes of the query as written and of the raw `Q⁺`.
    pub nodes_query: usize,
    pub nodes_raw: usize,
    pub nodes_after_passes: usize,
    pub pass_rounds: usize,
}

/// `Session::prepare` taken apart: for a certain-answer class the raw
/// translation (`core`), the rewrite-pass pipeline and physical planning
/// (`plan`), and operator compilation (`engine`); a plain class skips the
/// first two, exactly as the session does. Each stage is a child span of
/// `parent`.
pub fn chain_prepare(
    db: &Database,
    class: &Class,
    tracer: &mut Tracer,
    parent: SpanId,
    op: u64,
) -> ChainPlan {
    let name = class.name;
    let nodes_query = class.query.size();
    let (expr, nodes_raw, passes): (RaExpr, usize, Vec<PassTrace>) = match class.certainty {
        Certainty::Plain => (class.query.clone(), nodes_query, Vec::new()),
        _ => {
            let raw = tracer.span("core.translate", name, parent, op, || {
                CertainRewriter::unoptimized().rewrite_plus(&class.query, db)
            });
            let raw = raw.expect("translation of a TPC-H query");
            let nodes_raw = raw.size();
            let (expr, passes) = tracer
                .span("plan.passes", name, parent, op, || {
                    PassManager::standard().run_traced(&raw, db)
                })
                .expect("rewrite passes");
            (expr, nodes_raw, passes)
        }
    };
    let physical = tracer
        .span("plan.physical", name, parent, op, || {
            heuristic_plan_with(&expr, db, &Parallelism::new(1))
        })
        .expect("physical planning");
    let compiled = tracer
        .span("engine.compile", name, parent, op, || CompiledPlan::compile(&physical, db))
        .expect("operator compilation");
    ChainPlan {
        physical,
        compiled,
        nodes_query,
        nodes_raw,
        nodes_after_passes: expr.size(),
        pass_rounds: passes.iter().map(|p| p.round).max().unwrap_or(0),
    }
}

/// `Engine::execute_compiled` as a child span of `parent`.
pub fn chain_execute(
    db: &Database,
    config: &EngineConfig,
    plan: &CompiledPlan,
    class: &'static str,
    tracer: &mut Tracer,
    parent: SpanId,
    op: u64,
) -> Relation {
    tracer
        .span("engine.execute", class, parent, op, || {
            Engine::configured(db, NullSemantics::Sql, config.clone()).execute_compiled(plan)
        })
        .expect("execution of a compiled plan")
}

/// Nested-loop join and semijoin nodes of a physical plan.
pub fn nl_nodes(plan: &PhysicalExpr) -> u64 {
    let here = match plan {
        PhysicalExpr::Join { algo: JoinAlgo::NestedLoop, .. }
        | PhysicalExpr::Semi { algo: SemiAlgo::NestedLoop, .. } => 1,
        _ => 0,
    };
    here + plan.children().into_iter().map(nl_nodes).sum::<u64>()
}

// ---------------------------------------------------------------------------
// plan

pub fn stats_analyze_ms(db: &Database) -> Agg {
    time_us(5, || drop(black_box(StatisticsCatalog::analyze(db)))).scaled(1e-3)
}

/// The cost-based planner on the same optimized expressions the heuristic
/// one plans, reported beside `plan.physical_us`.
pub fn physical_costbased_us(db: &Database, classes: &[&Class]) -> Agg {
    let stats = StatisticsCatalog::analyze(db);
    let per_class: Vec<f64> = classes
        .iter()
        .map(|class| {
            let expr = CertainRewriter::new().rewrite_plus(&class.query, db).expect("translation");
            let planner = PhysicalPlanner::new(db, &stats);
            time_us(30, || drop(black_box(planner.plan(&expr)))).value
        })
        .collect();
    Agg::exact(geomean(&per_class), 30 * classes.len() as u64)
}

/// Worst estimate-vs-actual row ratio over the nodes of the analyzed plans.
pub fn est_act_max_ratio(session: &Session, classes: &[&Class]) -> Agg {
    let worst = classes
        .iter()
        .map(|class| {
            let analyzed =
                session.explain_analyze(&class.query, class.certainty).expect("explain analyze");
            analyzed.flatten().iter().map(|n| n.divergence()).fold(1.0, f64::max)
        })
        .fold(1.0, f64::max);
    Agg::exact(worst, classes.len() as u64)
}

// ---------------------------------------------------------------------------
// engine / obs / exec

/// Operator self times and row counts from `execute_prepared_profiled`,
/// summed over the given (certain-answer) prepared queries.
pub struct OperatorProfile {
    pub nl_join_self_share: f64,
    pub hash_self_share: f64,
    pub fused_self_share: f64,
    pub rows_examined_per_answer: f64,
    pub row_fallbacks: u64,
}

pub fn operator_profile(session: &Session, prepared: &[&PreparedQuery]) -> OperatorProfile {
    let (mut total, mut nl, mut hash, mut fused) = (0u64, 0u64, 0u64, 0u64);
    let (mut rows_in, mut rows_out, mut row_fallbacks) = (0u64, 0u64, 0u64);
    for query in prepared {
        // Median of three profiled executions, node by node, would need the
        // trees zipped; shares are ratios within one execution, so take the
        // last of three (the first two warm the profiled path).
        let mut profiles: Vec<QueryProfile> = Vec::new();
        for _ in 0..3 {
            profiles = session.execute_prepared_profiled(query).expect("profiled execution").1;
        }
        for profile in &profiles {
            total += profile.wall_ns;
            rows_out += profile.rows_out;
            for node in profile.flatten() {
                let own = node.self_wall_ns();
                match node.op.as_str() {
                    "nl_join" | "nl_semi" => nl += own,
                    "hash_join" | "hash_semi" => hash += own,
                    "fused" => fused += own,
                    _ => {}
                }
                rows_in += node.rows_in;
                row_fallbacks += node.row_fallbacks;
            }
        }
    }
    let share = |ns: u64| ns as f64 / total.max(1) as f64;
    OperatorProfile {
        nl_join_self_share: share(nl),
        hash_self_share: share(hash),
        fused_self_share: share(fused),
        rows_examined_per_answer: rows_in as f64 / rows_out.max(1) as f64,
        row_fallbacks,
    }
}

/// `execute_prepared_profiled` against `execute_prepared`, interleaved:
/// geometric mean over the queries of the ratio of medians, as percent over.
pub fn profiled_overhead_pct(session: &Session, prepared: &[&PreparedQuery], reps: usize) -> Agg {
    let ratios: Vec<f64> = prepared
        .iter()
        .map(|query| {
            let (mut plain, mut profiled) = (Vec::new(), Vec::new());
            for _ in 0..reps {
                let t = Instant::now();
                black_box(session.execute_prepared(query).expect("execution"));
                plain.push(ms_since(t));
                let t = Instant::now();
                black_box(session.execute_prepared_profiled(query).expect("profiled execution"));
                profiled.push(ms_since(t));
            }
            median(&profiled) / median(&plain)
        })
        .collect();
    Agg::exact((geomean(&ratios) - 1.0) * 100.0, (2 * reps * prepared.len()) as u64)
}

pub struct ExecMetrics {
    pub scope_overhead_us: Agg,
    /// `None` with fewer than two cores: a flat figure would read as "does
    /// not scale" when it only says "could not be measured".
    pub parallel_speedup: Option<Agg>,
    pub tasks_stolen: u64,
}

/// `Pool::scope` with `c` no-op tasks, and one heavy class at 1 against `c`
/// engine threads. No end-to-end metric moves with these (every workload
/// pins one engine thread); they are the baseline a parallel workload would
/// start from.
pub fn exec_metrics(db: &Arc<Database>, heavy: &Class, c: usize) -> ExecMetrics {
    let pool = certus::exec::Pool::new(c);
    let scope_overhead_us = time_us(2000, || {
        pool.scope(|scope| {
            for _ in 0..c {
                scope.spawn(|| {});
            }
        })
    });
    if c < 2 {
        return ExecMetrics { scope_overhead_us, parallel_speedup: None, tasks_stolen: 0 };
    }
    let pool = Arc::new(pool);
    let median_ms = |threads: usize| {
        let session =
            Session::builder_over(db.clone()).threads(threads).worker_pool(pool.clone()).build();
        let prepared = session.prepare(&heavy.query, heavy.certainty).expect("prepare");
        let runs: Vec<f64> = (0..5)
            .map(|_| {
                let t = Instant::now();
                black_box(session.execute_prepared(&prepared).expect("execution"));
                ms_since(t)
            })
            .collect();
        median(&runs)
    };
    let serial = median_ms(1);
    let stolen_before = pool.tasks_stolen();
    let parallel = median_ms(c);
    ExecMetrics {
        scope_overhead_us,
        parallel_speedup: Some(Agg::exact(serial / parallel, 10)),
        tasks_stolen: pool.tasks_stolen() - stolen_before,
    }
}

// ---------------------------------------------------------------------------
// data

pub fn to_batches_ms(db: &Database) -> Agg {
    let lineitem = db.relation("lineitem").expect("lineitem");
    time_us(20, || drop(black_box(lineitem.to_batches(4096, db.str_pool())))).scaled(1e-3)
}

pub fn snapshot_pin_ns(db: &Database) -> Agg {
    let store = SnapshotStore::new(db.clone());
    time_batched_ns(200, 1000, || drop(black_box(store.pin())))
}

/// `SnapshotStore::update` appending one batch to `lineitem` while a reader
/// pin is alive, so the relation is copied on write — what every served
/// insert pays before it is logged.
pub fn snapshot_update_us(db: &Database, batches: &[Vec<Tuple>]) -> Agg {
    let store = SnapshotStore::new(db.clone());
    let mut batches = batches.iter().cycle();
    time_us(50, || {
        let _reader = store.pin();
        let rows = batches.next().expect("at least one batch");
        store.update(|db| {
            let mut scratch = db.relation("lineitem").expect("lineitem").clone();
            for row in rows {
                scratch.insert_values(row.values().to_vec()).expect("arity");
            }
            *db.relation_mut("lineitem").expect("lineitem") = scratch;
        })
    })
}

pub struct WalMetrics {
    pub insert_us: Agg,
    pub record_encode_us: Agg,
    pub bytes_per_user_byte: Agg,
    pub checkpoint_ms: Agg,
    pub checkpoint_bytes: Agg,
    pub recover_ms: Agg,
}

/// The write path's storage layer called directly, on a store of its own in
/// `dir`: `DurableStore::insert` (validate, append, fsync, publish),
/// `WalRecord::encode`, `DurableStore::checkpoint`, `wal::recover`.
pub fn wal_metrics(dir: &Path, db: &Database, batches: &[Vec<Tuple>]) -> WalMetrics {
    let _ = std::fs::remove_dir_all(dir);
    // Never checkpoint on its own: the checkpoint is timed separately.
    let store = DurableStore::open(dir, db.clone(), 0).expect("open a durable store");
    let mut user_bytes = 0u64;
    let wal_before = store.wal_len();
    let mut next = batches.iter().cycle();
    let insert_us = time_us(50, || {
        let rows = next.next().expect("at least one batch");
        store.insert("lineitem", rows).expect("durable insert");
    });
    for rows in batches.iter().cycle().take(50) {
        let mut encoded = Vec::new();
        rows.iter().for_each(|row| put_tuple(&mut encoded, row));
        user_bytes += encoded.len() as u64;
    }
    let wal_bytes = store.wal_len() - wal_before;
    let record = WalRecord::Insert { table: "lineitem".into(), rows: batches[0].clone() };
    let record_encode_us = time_us(2000, || drop(black_box(record.encode())));
    let checkpoint_ms = time_us(5, || store.checkpoint().expect("checkpoint")).scaled(1e-3);
    let checkpoint_bytes = std::fs::read_dir(dir)
        .expect("store directory")
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("checkpoint-"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    // Leave a WAL suffix to replay, as a crashed server would.
    for rows in batches.iter().take(16) {
        store.insert("lineitem", rows).expect("durable insert");
    }
    drop(store);
    let recover_ms =
        time_us(5, || drop(black_box(wal::recover(dir).expect("recover")))).scaled(1e-3);
    let _ = std::fs::remove_dir_all(dir);
    if let Some(parent) = dir.parent() {
        // Gone too if nothing else is in it.
        let _ = std::fs::remove_dir(parent);
    }
    WalMetrics {
        insert_us,
        record_encode_us,
        bytes_per_user_byte: Agg::exact(wal_bytes as f64 / user_bytes.max(1) as f64, 50),
        checkpoint_ms,
        checkpoint_bytes: Agg::exact(checkpoint_bytes as f64, 1),
        recover_ms,
    }
}

// ---------------------------------------------------------------------------
// certus

/// `Session::prepare` when the plan cache misses and when it hits, as the
/// geometric mean over the classes of the median.
pub fn prepare_cold_hit_us(db: &Arc<Database>, classes: &[&Class]) -> (Agg, Agg) {
    let reps = 200;
    let (mut cold, mut hit) = (Vec::new(), Vec::new());
    for class in classes {
        // Capacity 1 and another query prepared in between: every prepare
        // of `class` finds the cache holding the other one.
        let session = Session::builder_over(db.clone()).threads(1).cache_capacity(1).build();
        let other = RaExpr::relation("region");
        let samples: Vec<f64> = (0..reps)
            .map(|_| {
                session.prepare(&other, Certainty::Plain).expect("prepare");
                let t = Instant::now();
                black_box(session.prepare(&class.query, class.certainty).expect("prepare"));
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        cold.push(median(&samples));
        let session = Session::builder_over(db.clone()).threads(1).build();
        session.prepare(&class.query, class.certainty).expect("prepare");
        let hits = time_us(reps, || {
            black_box(session.prepare(&class.query, class.certainty).expect("prepare"));
        });
        hit.push(hits.value);
    }
    let n = (reps * classes.len()) as u64;
    (Agg::exact(geomean(&cold), n), Agg::exact(geomean(&hit), n))
}

/// What the server's per-request path adds over the bare engine for one
/// class: build a session over the shared snapshot, fetch the plan from the
/// shared cache, `execute_prepared` — minus `Engine::execute_compiled` on
/// the same plan.
pub fn session_overhead_us(db: &Arc<Database>, class: &Class) -> Agg {
    let cache = certus::SharedPlanCache::new(128);
    let per_request = time_us(300, || {
        let session =
            Session::builder_over(db.clone()).threads(1).plan_cache(cache.clone()).build();
        let prepared = session.prepare(&class.query, class.certainty).expect("prepare");
        black_box(session.execute_prepared(&prepared).expect("execution"));
    });
    let mut scratch = Tracer::new(Instant::now(), 0);
    let plan = chain_prepare(db, class, &mut scratch, 0, 0);
    let config = EngineConfig { threads: 1, ..EngineConfig::from_env() };
    let engine_only = time_us(300, || {
        let engine = Engine::configured(db, NullSemantics::Sql, config.clone());
        black_box(engine.execute_compiled(&plan.compiled).expect("execution"));
    });
    Agg { n: 600, ..per_request.minus(engine_only.value) }
}

// ---------------------------------------------------------------------------
// server (protocol)

/// `encode_request` / `decode_request` on the request the read loops send.
pub fn request_codec_us(prepared: u64) -> (Agg, Agg) {
    let request = Request::Execute { prepared, deadline_ms: 0 };
    let encode =
        time_batched_ns(200, 100, || drop(black_box(encode_request(7, black_box(&request)))))
            .scaled(1e-3);
    let bytes = encode_request(7, &request);
    let decode = time_batched_ns(200, 100, || drop(black_box(decode_request(black_box(&bytes)))))
        .scaled(1e-3);
    (encode, decode)
}

pub struct AnswerCodec {
    pub encode_us: Agg,
    pub decode_us: Agg,
    pub bytes: u64,
}

/// What the server does to an answer before the socket (`answer_body` +
/// `encode_response`) and the client after it (`decode_response`).
pub fn answer_codec(answers: &certus::AnswerSet, reps: usize) -> AnswerCodec {
    let encode =
        || encode_response(7, &Response::Answers { body: answer_body(answers), reprepared: false });
    let encode_us = time_us(reps, || drop(black_box(encode())));
    let frame = encode();
    let decode_us = time_us(reps, || drop(black_box(decode_response(black_box(&frame)))));
    AnswerCodec { encode_us, decode_us, bytes: frame.len() as u64 }
}
