//! Differential correctness of the parallel execution engine.
//!
//! The parallel executor is held to the same bar as the rewrite passes: on
//! randomized null databases it must return **exactly** the serial engine's
//! result (as a set) for every pipeline-optimized plan, under both SQL and
//! naive null semantics, at every thread count. On top of that, execution
//! must be deterministic (two runs with the same configuration produce
//! identical relations, order included), and a single-thread configuration
//! must degenerate to the serial code path — asserted via `ExplainPlan`:
//! no exchange operators appear in its plans.

use certus::algebra::NullSemantics;
use certus::data::inject::NullInjector;
use certus::engine::{Engine, EngineConfig};
use certus::plan::physical::heuristic_plan_with;
use certus::plan::{Parallelism, PassManager, PhysicalPlanner, StatisticsCatalog};
use certus::tpch::{q1, q2, q3, q4, DbGen, QueryParams};
use certus::{CertainRewriter, Database, RaExpr};

fn workload_db(seed: u64) -> Database {
    let complete = DbGen::new(0.00025, seed).generate();
    NullInjector::new(0.05, seed.wrapping_mul(31).wrapping_add(7)).inject(&complete)
}

/// The paper's queries plus their pipeline-optimized certain-answer
/// translations — the workload every engine configuration must agree on.
fn pipeline_optimized_queries(db: &Database, seed: u64) -> Vec<RaExpr> {
    let params = QueryParams::random(db, seed);
    let raw_rewriter = CertainRewriter::unoptimized();
    let passes = PassManager::standard();
    let mut queries = vec![q1(&params), q2(&params), q3(&params), q4(&params)];
    for q in [q1(&params), q2(&params), q3(&params), q4(&params)] {
        let raw = raw_rewriter.rewrite_plus(&q, db).expect("translates");
        queries.push(passes.run(&raw, db).expect("pipeline runs"));
    }
    queries
}

#[test]
fn parallel_engine_matches_serial_on_randomized_null_databases() {
    for seed in [3u64, 11] {
        let db = workload_db(seed);
        let queries = pipeline_optimized_queries(&db, seed);
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let serial = Engine::configured(&db, semantics, EngineConfig::serial());
            for q in &queries {
                let expected = serial.execute(q).expect("serial runs").sorted().distinct();
                for threads in [2usize, 8, 32] {
                    // Floor 0: every exchange actually fans out, so the
                    // parallel code paths are exercised even on this small
                    // instance (the default floor would run most of them
                    // inline).
                    let parallel = Engine::configured(
                        &db,
                        semantics,
                        EngineConfig::with_threads(threads).with_parallel_floor(0),
                    );
                    let got = parallel.execute(q).expect("parallel runs").sorted().distinct();
                    assert_eq!(
                        got.tuples(),
                        expected.tuples(),
                        "seed {seed}, {threads} threads, {} semantics, query {q}",
                        semantics.label()
                    );
                }
            }
        }
    }
}

#[test]
fn cost_based_parallel_plans_match_serial_execution() {
    let db = workload_db(7);
    let params = QueryParams::random(&db, 7);
    let stats = StatisticsCatalog::analyze(&db);
    let serial_planner = PhysicalPlanner::new(&db, &stats);
    let parallel_planner = PhysicalPlanner::with_parallelism(&db, &stats, Parallelism::new(4));
    let serial_engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::serial());
    let parallel_engine = Engine::configured(
        &db,
        NullSemantics::Sql,
        EngineConfig::with_threads(4).with_parallel_floor(0),
    );
    for q in [q1(&params), q3(&params), q4(&params)] {
        let sp = serial_planner.plan(&q).expect("plans");
        let pp = parallel_planner.plan(&q).expect("plans");
        assert!(!sp.has_exchange());
        assert!(pp.has_exchange(), "parallel planner should exchange {q}");
        let a = serial_engine.execute_physical(&sp).expect("runs").sorted().distinct();
        let b = parallel_engine.execute_physical(&pp).expect("runs").sorted().distinct();
        assert_eq!(a.tuples(), b.tuples(), "query {q}");
    }
}

/// Every native operator of the compiled runtime, executed through parallel
/// engine configurations on randomized null databases, must return the
/// serial result under both semantics (run by CI with `CERTUS_THREADS=1`
/// and `=4` on top of the explicit thread counts here).
#[test]
fn native_operators_match_serial_across_thread_counts() {
    use certus::algebra::builder::{eq, eq_const, is_null, neq};
    use certus::algebra::{AggExpr, AggFunc};
    use certus::data::builder::rel;
    use certus::data::null::NullId;
    use certus::data::Value;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0x9A7A);
    let value = |rng: &mut StdRng| {
        if rng.gen_bool(0.2) {
            Value::Null(NullId(rng.gen_range(1..6u64)))
        } else {
            Value::Int(rng.gen_range(0..6i64))
        }
    };
    for case in 0..12 {
        let mut db = Database::new();
        let rows = |rng: &mut StdRng| {
            let n = rng.gen_range(4..40usize);
            (0..n).map(|_| vec![value(rng), value(rng)]).collect::<Vec<_>>()
        };
        let r_rows = rows(&mut rng);
        let s_rows = rows(&mut rng);
        db.insert_relation("r", rel(&["a", "b"], r_rows));
        db.insert_relation("s", rel(&["c", "d"], s_rows));
        let queries = vec![
            RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").and(neq("b", "d"))),
            RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(is_null("d"))),
            RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "c")),
            RaExpr::relation("r")
                .select(eq_const("a", 2i64).or(is_null("b")))
                .project(&["b"])
                .union(RaExpr::relation("s").project(&["d"]).rename(&["b"])),
            RaExpr::relation("r").project(&["a"]).intersect(RaExpr::relation("s").project(&["c"])),
            RaExpr::relation("r").project(&["a"]).difference(RaExpr::relation("s").project(&["c"])),
            RaExpr::relation("r").unify_anti_join(RaExpr::relation("s")),
            RaExpr::relation("r")
                .divide(RaExpr::relation("s").project(&["c"]).rename(&["b"]).distinct()),
            // COUNT only: other aggregates emit fresh nulls on all-null
            // groups, which never compare equal across evaluations.
            RaExpr::relation("r").aggregate(
                &["a"],
                vec![AggExpr::count_star("n"), AggExpr::new(AggFunc::Count, "b", "m")],
            ),
        ];
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let serial = Engine::configured(&db, semantics, EngineConfig::serial());
            for q in &queries {
                let expected = serial.execute(q).expect("serial runs").sorted().distinct();
                for threads in [2usize, 4] {
                    let parallel = Engine::configured(
                        &db,
                        semantics,
                        EngineConfig::with_threads(threads).with_parallel_floor(0),
                    );
                    let got = parallel.execute(q).expect("parallel runs").sorted().distinct();
                    assert_eq!(
                        got.tuples(),
                        expected.tuples(),
                        "case {case}, {threads} threads, {} semantics, query {q}",
                        semantics.label()
                    );
                }
            }
        }
    }
}

/// Output **order** of the hash operators is probe order: the unsorted
/// result at every thread count equals the serial one, whether the key
/// columns are typed, mixed-variant or all null — how a key column happens
/// to be typed must not reorder the same plan's output.
#[test]
fn hash_operator_output_order_is_independent_of_threads_and_key_typing() {
    use certus::algebra::builder::eq;
    use certus::data::builder::rel;
    use certus::data::null::NullId;
    use certus::data::Value;

    let null = |i: i64| Value::Null(NullId(i as u64));
    // Columns: a typed key with a few nulls, a mixed int-or-string key, an
    // all-null key (ids repeat across the tables, so naive semantics finds
    // matches), and a row id that makes every tuple distinct.
    let row = |i: i64, null_ids: i64| {
        let typed = if i % 6 == 0 { null(i % 3 + 1) } else { Value::Int(i % 7) };
        let mixed = match i % 4 {
            0 => Value::Int(i % 5),
            1 => Value::str(["x", "y", "z"][(i % 3) as usize]),
            2 => Value::Int(i % 3),
            _ => null(i % 4 + 50),
        };
        vec![typed, mixed, null(i % null_ids + 10), Value::Int(i)]
    };
    let mut db = Database::new();
    db.insert_relation("r", rel(&["a", "m", "z", "rid"], (0..40).map(|i| row(i, 5)).collect()));
    db.insert_relation("s", rel(&["c", "n", "y", "sid"], (0..30).map(|i| row(i, 4)).collect()));

    let (r, s) = (RaExpr::relation("r"), RaExpr::relation("s"));
    for (kind, l_key, r_key) in [("typed", "a", "c"), ("mixed", "m", "n"), ("all-null", "z", "y")] {
        let queries = [
            r.clone().join(s.clone(), eq(l_key, r_key)),
            r.clone().semi_join(s.clone(), eq(l_key, r_key)),
            r.clone().anti_join(s.clone(), eq(l_key, r_key)),
        ];
        for q in &queries {
            for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
                let serial = Engine::configured(&db, semantics, EngineConfig::serial());
                let expected = serial.execute(q).expect("serial runs");
                for threads in [2usize, 8, 32] {
                    let config = EngineConfig::with_threads(threads).with_parallel_floor(0);
                    let parallel = Engine::configured(&db, semantics, config);
                    assert!(parallel.plan(q).expect("plans").has_exchange());
                    assert_eq!(
                        parallel.execute(q).expect("parallel runs").tuples(),
                        expected.tuples(),
                        "{kind} keys, {threads} threads, {} semantics, query {q}",
                        semantics.label()
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_execution_is_deterministic() {
    let db = workload_db(5);
    let params = QueryParams::random(&db, 5);
    let rewriter = CertainRewriter::new();
    for threads in [2usize, 8, 32] {
        let engine = Engine::configured(
            &db,
            NullSemantics::Sql,
            EngineConfig::with_threads(threads).with_parallel_floor(0),
        );
        for q in [q3(&params), q4(&params)] {
            let plus = rewriter.rewrite_plus(&q, &db).expect("translates");
            let first = engine.execute(&plus).expect("runs");
            let second = engine.execute(&plus).expect("runs");
            // Identical relations, tuple order included — partition routing
            // is a fixed hash and partition outputs are concatenated in
            // order, regardless of how the pool schedules the tasks.
            assert_eq!(first.tuples(), second.tuples(), "{threads} threads, query {q}");
        }
    }
}

/// Concurrent sessions submitting to one shared worker pool: every client
/// still gets exactly the serial answers, and the pool never runs more
/// tasks at once than its width — the configured-thread bound the old
/// per-engine `in_flight` counter only approximated (racily).
#[test]
fn concurrent_sessions_share_one_pool() {
    use certus::exec::Pool;
    use certus::{Certainty, Session};
    use std::sync::Arc;

    let pool = Arc::new(Pool::new(4));
    let db = workload_db(13);
    let params = QueryParams::random(&db, 13);
    let queries: Vec<RaExpr> = vec![q1(&params), q3(&params), q4(&params)];
    let serial = Session::builder(db.clone()).config(EngineConfig::serial()).build();
    let expected: Vec<_> = queries
        .iter()
        .map(|q| {
            serial
                .execute(q, Certainty::CertainPlus)
                .expect("serial runs")
                .relation()
                .sorted()
                .distinct()
        })
        .collect();

    std::thread::scope(|s| {
        for client in 0..6usize {
            let pool = pool.clone();
            let db = db.clone();
            let queries = &queries;
            let expected = &expected;
            s.spawn(move || {
                let session = Session::builder(db)
                    .config(EngineConfig::with_threads(8).with_parallel_floor(0))
                    .worker_pool(pool)
                    .build();
                for round in 0..3 {
                    for (q, want) in queries.iter().zip(expected) {
                        let got = session
                            .execute(q, Certainty::CertainPlus)
                            .expect("parallel runs")
                            .relation()
                            .sorted()
                            .distinct();
                        assert_eq!(
                            got.tuples(),
                            want.tuples(),
                            "client {client}, round {round}, query {q}"
                        );
                    }
                }
            });
        }
    });
    assert!(pool.tasks_executed() > 0, "the shared pool never ran a task");
    assert!(
        pool.peak_busy_workers() <= pool.width(),
        "pool ran {} tasks at once with only {} workers",
        pool.peak_busy_workers(),
        pool.width()
    );
}

/// Stress the worker bound: a plan fan-out far wider than the pool (64
/// partitions, 8 workers) must neither deadlock nor run more than `width`
/// tasks simultaneously, and still return the serial answers.
#[test]
fn oversubscribed_fan_out_stays_within_pool_width() {
    use certus::exec::Pool;
    use certus::{Certainty, Session};
    use std::sync::Arc;

    let pool = Arc::new(Pool::new(8));
    let db = workload_db(17);
    let params = QueryParams::random(&db, 17);
    let serial = Session::builder(db.clone()).config(EngineConfig::serial()).build();
    let session = Session::builder(db)
        .config(EngineConfig::with_threads(64).with_parallel_floor(0))
        .worker_pool(pool.clone())
        .build();
    for q in [q3(&params), q4(&params)] {
        let want = serial.execute(&q, Certainty::CertainPlus).expect("serial runs");
        let got = session.execute(&q, Certainty::CertainPlus).expect("parallel runs");
        assert_eq!(
            got.relation().sorted().distinct().tuples(),
            want.relation().sorted().distinct().tuples(),
            "query {q}"
        );
    }
    assert!(
        pool.peak_busy_workers() <= pool.width(),
        "64-way fan-out ran {} tasks at once on an 8-wide pool",
        pool.peak_busy_workers()
    );
}

#[test]
fn single_thread_config_degenerates_to_serial_plans() {
    let db = workload_db(9);
    let params = QueryParams::random(&db, 9);
    let q = q3(&params);
    let stats = StatisticsCatalog::analyze(&db);

    // threads = 1: the explain tree shows no exchange operators.
    let serial = PhysicalPlanner::with_parallelism(&db, &stats, Parallelism::serial());
    let text = serial.explain(&q).expect("plans").to_string();
    assert!(!text.contains("Exchange"), "serial explain must not exchange:\n{text}");

    // threads = 4: exchanges appear in the rendering.
    let parallel = PhysicalPlanner::with_parallelism(&db, &stats, Parallelism::new(4));
    let text = parallel.explain(&q).expect("plans").to_string();
    assert!(text.contains("Exchange x4"), "parallel explain should exchange:\n{text}");

    // The engine's own plan at one thread is *identical* to the serial
    // plan, and free of exchanges.
    let engine1 = Engine::configured(&db, NullSemantics::Sql, EngineConfig::with_threads(1));
    let plan1 = engine1.plan(&q).expect("plans");
    assert_eq!(plan1, heuristic_plan_with(&q, &db, &Parallelism::serial()).expect("plans"));
    assert!(!plan1.has_exchange());
    let engine4 = Engine::configured(&db, NullSemantics::Sql, EngineConfig::with_threads(4));
    assert!(engine4.plan(&q).expect("plans").has_exchange());
}
