//! Integration tests for the `Session`/`PreparedQuery` facade: plan-cache
//! hit/miss accounting, prepared plans that outlive writes to the rows,
//! schema-epoch invalidation, stale-plan detection, cancellation, and
//! the differential property that session answers are identical to the
//! direct `CertainRewriter` + `Engine` path under both null semantics on
//! randomized null databases.

use certus::algebra::builder::eq;
use certus::data::builder::rel;
use certus::data::inject::NullInjector;
use certus::data::null::NullId;
use certus::tpch::{q1, q2, q3, q4, DbGen, QueryParams};
use certus::{
    CertainRewriter, Certainty, Database, Engine, EngineConfig, Error, NullSemantics, RaExpr,
    Session, Tuple, Value,
};

fn small_db() -> Database {
    let mut db = Database::new();
    db.insert_relation(
        "r",
        rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]),
    );
    db.insert_relation("s", rel(&["b"], vec![vec![Value::Int(2)], vec![Value::Null(NullId(1))]]));
    db
}

fn diff_query() -> RaExpr {
    RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"))
}

#[test]
fn reexecuting_a_prepared_query_does_no_planning_work() {
    let session = Session::new(small_db());
    let prepared = session.prepare(&diff_query(), Certainty::CertainPlus).unwrap();
    let after_prepare = session.cache_stats();
    assert_eq!((after_prepare.hits, after_prepare.misses), (0, 1));

    // Execute the prepared query many times: the cache counters must not
    // move at all — execution touches neither the rewriter nor a planner.
    for _ in 0..5 {
        assert!(session.execute_prepared(&prepared).unwrap().is_empty());
    }
    let after_runs = session.cache_stats();
    assert_eq!((after_runs.hits, after_runs.misses), (0, 1));
    assert_eq!(after_runs.insertions, 1);

    // Preparing the same query again is a pure cache hit.
    let again = session.prepare(&diff_query(), Certainty::CertainPlus).unwrap();
    assert_eq!(again.schema_epoch(), prepared.schema_epoch());
    let after_rehit = session.cache_stats();
    assert_eq!((after_rehit.hits, after_rehit.misses), (1, 1));
    assert_eq!(after_rehit.insertions, 1, "a hit must not re-plan");

    // The convenience path `execute` goes through the same cache.
    session.execute(&diff_query(), Certainty::CertainPlus).unwrap();
    assert_eq!(session.cache_stats().hits, 2);
}

#[test]
fn schema_epoch_bump_invalidates_cached_plans() {
    let mut session = Session::new(small_db());
    let epoch0 = session.schema_epoch();
    let prepared = session.prepare(&diff_query(), Certainty::CertainPlus).unwrap();
    assert_eq!(prepared.schema_epoch(), epoch0);
    assert_eq!(session.cache_stats().entries, 1);

    // Mutating the database bumps the epoch…
    session.database_mut().insert_relation("t", rel(&["x"], vec![vec![Value::Int(9)]]));
    assert!(session.schema_epoch() > epoch0);

    // …so the old prepared query is refused rather than silently executed…
    match session.execute_prepared(&prepared) {
        Err(e @ Error::StalePlan { prepared_epoch, current_epoch }) => {
            assert!(!e.is_cancelled());
            assert_eq!(prepared_epoch, epoch0);
            assert_eq!(current_epoch, session.schema_epoch());
        }
        other => panic!("expected StalePlan, got {other:?}"),
    }

    // …and re-preparing is a miss (the stale entry is dropped, not hit).
    session.prepare(&diff_query(), Certainty::CertainPlus).unwrap();
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 2));
    assert_eq!(stats.invalidations, 1, "the stale entry was pruned");
    assert_eq!(stats.entries, 1);
}

#[test]
fn a_tripped_cancel_token_fails_the_execution_as_cancelled() {
    let token = certus::exec::CancelToken::new();
    let session = Session::builder(small_db()).cancel_token(token.clone()).build();
    let prepared = session.prepare(&diff_query(), Certainty::CertainPlus).unwrap();
    assert!(session.execute_prepared(&prepared).is_ok());
    token.cancel();
    let e = session.execute_prepared(&prepared).unwrap_err();
    assert_eq!(e, Error::Cancelled);
    assert!(e.is_cancelled());
}

#[test]
fn a_prepared_query_sees_inserts_without_re_preparing() {
    let mut session = Session::new(small_db());
    let prepared = session.prepare(&diff_query(), Certainty::Plain).unwrap();
    // SQL's anti-join keeps 1 and 3: `a = ⊥` is unknown, so ⊥ matches nothing.
    assert_eq!(session.execute_prepared(&prepared).unwrap().len(), 2);
    let planned = session.cache_stats();
    let version = session.database().version();

    // An insert moves the data version and leaves the schema epoch alone…
    session.database_mut().relation_mut("r").unwrap().insert_values([Value::Int(4)]).unwrap();
    assert!(session.database().version() > version);
    assert_eq!(session.schema_epoch(), prepared.schema_epoch());

    // …so the prepared plan runs as is and its answer includes the row…
    let answers = session.execute_prepared(&prepared).unwrap();
    assert_eq!(answers.len(), 3);
    assert!(answers.relation().contains(&Tuple::new(vec![Value::Int(4)])));

    // …and preparing the query again is a hit: nothing was planned twice.
    session.prepare(&diff_query(), Certainty::Plain).unwrap();
    let stats = session.cache_stats();
    assert_eq!((stats.misses, stats.insertions), (planned.misses, planned.insertions));
    assert_eq!((stats.hits, stats.invalidations), (planned.hits + 1, planned.invalidations));
}

#[test]
fn replacing_a_relation_with_another_schema_plans_against_the_new_one() {
    let mut session = Session::new(small_db());
    let scan = session.prepare(&RaExpr::relation("r"), Certainty::Plain).unwrap();
    let replacement = rel(&["a", "b"], vec![vec![Value::Int(1), Value::Int(5)]]);
    session.database_mut().insert_relation("r", replacement);

    // The catalog describes the relation as it is now: `b` resolves…
    let answers =
        session.execute(&RaExpr::relation("r").project(&["b"]), Certainty::Plain).unwrap();
    assert_eq!(answers.relation().tuples().to_vec(), vec![Tuple::new(vec![Value::Int(5)])]);
    // …and the plan compiled against `r(a)` is refused.
    assert!(matches!(session.execute_prepared(&scan), Err(Error::StalePlan { .. })));
}

#[test]
fn certainty_both_breaks_down_the_sql_answer() {
    let session = Session::new(small_db());
    let both = session.execute(&diff_query(), Certainty::Both).unwrap();
    let breakdown = both.breakdown.expect("Both carries a breakdown");
    assert_eq!(breakdown.total, both.plain.as_ref().unwrap().len());
    assert_eq!(breakdown.certain + breakdown.false_positives, breakdown.total);
    // With ⊥ in s nothing is certain: both SQL answers are false positives.
    assert_eq!(breakdown.false_positives, 2);
    let possible = both.possible.as_ref().expect("Both carries the possible answers");
    for t in both.plain.as_ref().unwrap().iter() {
        assert!(possible.contains(t), "every SQL answer is possible");
    }
}

#[test]
fn prepared_queries_survive_for_each_certainty_and_thread_count() {
    let session = Session::builder(small_db()).threads(1).build();
    for certainty in
        [Certainty::Plain, Certainty::CertainPlus, Certainty::PossibleStar, Certainty::Both]
    {
        let prepared = session.prepare(&diff_query(), certainty).unwrap();
        assert_eq!(prepared.certainty(), certainty);
        let expected = if certainty == Certainty::Both { 3 } else { 1 };
        assert_eq!(prepared.plan_count(), expected);
        session.execute_prepared(&prepared).unwrap();
    }
    // Four distinct certainties → four distinct cache keys.
    assert_eq!(session.cache_stats().entries, 4);
    assert_eq!(session.cache_stats().misses, 4);
}

/// The central differential property: for randomized null databases, under
/// both semantics, the session's answers are exactly what the direct
/// `CertainRewriter` + `Engine` wiring produces.
#[test]
fn session_matches_the_direct_rewriter_plus_engine_path() {
    for seed in [11u64, 42, 77] {
        let complete = DbGen::new(0.0002, seed).generate();
        let db = NullInjector::new(0.05, seed + 1).inject(&complete);
        let params = QueryParams::random(&db, seed);
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let session = Session::builder(db.clone())
                .semantics(semantics)
                .config(EngineConfig::serial())
                .build();
            let engine = Engine::configured(&db, semantics, EngineConfig::serial());
            let rewriter = match semantics {
                NullSemantics::Sql => CertainRewriter::new(),
                NullSemantics::Naive => CertainRewriter::theoretical(),
            };
            for q in [q1(&params), q2(&params), q3(&params), q4(&params)] {
                // Plain evaluation.
                let via_session = session.execute(&q, Certainty::Plain).unwrap().relation().clone();
                let direct = engine.execute(&q).unwrap();
                assert_eq!(
                    via_session.sorted().tuples(),
                    direct.sorted().tuples(),
                    "plain answers differ ({} semantics, seed {seed}): {q}",
                    semantics.label()
                );
                // Certain-answer evaluation.
                let plus = rewriter.rewrite_plus(&q, &db).unwrap();
                let via_session =
                    session.execute(&q, Certainty::CertainPlus).unwrap().relation().clone();
                let direct = engine.execute(&plus).unwrap();
                assert_eq!(
                    via_session.sorted().tuples(),
                    direct.sorted().tuples(),
                    "certain answers differ ({} semantics, seed {seed}): {q}",
                    semantics.label()
                );
            }
        }
    }
}

#[test]
fn session_explain_matches_planner_output_shape() {
    let session = Session::new(small_db());
    let explain = session.explain(&diff_query(), Certainty::CertainPlus).unwrap();
    assert!(explain.size() >= 2);
    let rendered = explain.to_string();
    assert!(rendered.contains("rows≈"), "{rendered}");
    // Parallel sessions render the exchanges their plans carry, however
    // small the input.
    let parallel = Session::builder(small_db()).threads(4).build();
    let rendered = parallel.explain(&diff_query(), Certainty::Plain).unwrap().to_string();
    assert!(rendered.contains("Exchange x4"), "{rendered}");
}
