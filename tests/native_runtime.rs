//! Acceptance check for the compiled operator runtime: re-executing a
//! `PreparedQuery` must perform **zero** schema inference and **zero**
//! column-name resolution, and extract no column twice from one snapshot. The `certus::data` profiling counters instrument exactly
//! those operations; this file contains a single
//! test (integration-test files run as their own process) so no concurrent
//! engine work can pollute the counter deltas.

use certus::engine::CompiledPlan;
use certus::obs::profile::ProfileSnapshot;
use certus::tpch::{query_by_number, Workload};
use certus::{Certainty, EngineConfig, NullSemantics, Session};

#[test]
fn prepared_re_execution_does_zero_per_execution_setup_work() {
    let workload = Workload::new(0.0004, 0.04, 31);
    let db = workload.incomplete_instance();
    let params = workload.params(&db, 0);
    let session = Session::builder(db).config(EngineConfig::serial()).build();

    // Q3 and Q4 cover filters, projections, hash joins, hash anti-joins and
    // split unions; neither contains a scalar subquery (scalar subqueries
    // are opaque to the planner and are deliberately evaluated through the
    // reference evaluator once per execution).
    for q in [3usize, 4] {
        let expr = query_by_number(q, &params).expect("query exists");
        let prepared = session.prepare(&expr, Certainty::CertainPlus).expect("prepares");
        let first = session.execute_prepared(&prepared).expect("runs");

        let before = ProfileSnapshot::now();
        for _ in 0..3 {
            let again = session.execute_prepared(&prepared).expect("runs");
            assert_eq!(
                again.relation().sorted().tuples(),
                first.relation().sorted().tuples(),
                "Q{q}+ re-execution changed results"
            );
        }
        let delta = ProfileSnapshot::now().delta_since(&before);
        assert!(
            delta.is_zero(),
            "re-executing prepared Q{q}+ did hidden per-execution work: {delta:?}"
        );
    }

    // Planning and compiling, by contrast, trip the counters — the
    // instrumentation itself is alive. Compilation resolves every column
    // name to a position; inferring operator schemas is the planner's work.
    let engine =
        certus::Engine::configured(session.database(), NullSemantics::Sql, EngineConfig::serial());
    let expr = query_by_number(3, &params).expect("query exists");
    let before = ProfileSnapshot::now();
    let plan = engine.plan(&expr).expect("plans");
    let planned = ProfileSnapshot::now();
    CompiledPlan::compile(&plan, session.database()).expect("compiles");
    let compiled = ProfileSnapshot::now().delta_since(&planned);
    let planned = planned.delta_since(&before);
    assert!(planned.schema_inferences > 0, "planning should infer schemas: {planned:?}");
    assert!(compiled.name_resolutions > 0, "compilation should resolve names: {compiled:?}");

    // Column extraction is execution work, but it depends only on the
    // snapshot: a relation keeps the columns it was asked for, and operators
    // read a subset of its rows by gathering from them. So re-executing any
    // of Q1–Q4 and Q⁺1–Q⁺4 over an unchanged snapshot extracts nothing.
    let mut session = session;
    let queries: Vec<_> = (1..=4usize)
        .flat_map(|q| {
            let expr = query_by_number(q, &params).expect("query exists");
            [(q, Certainty::Plain, expr.clone()), (q, Certainty::CertainPlus, expr)]
        })
        .collect();
    let extractions = |session: &Session| {
        let runs: Vec<(usize, Certainty, u64)> = (queries.iter())
            .map(|(q, certainty, expr)| {
                let prepared = session.prepare(expr, *certainty).expect("prepares");
                let before = ProfileSnapshot::now();
                session.execute_prepared(&prepared).expect("runs");
                (*q, *certainty, ProfileSnapshot::now().delta_since(&before).column_extractions)
            })
            .collect();
        runs
    };
    let total = |runs: &[(usize, Certainty, u64)]| runs.iter().map(|r| r.2).sum::<u64>();
    let first = extractions(&session);
    assert!(total(&first) > 0, "the first executions fill the caches: {first:?}");
    for _ in 0..2 {
        let again = extractions(&session);
        assert_eq!(total(&again), 0, "re-executions extracted columns: {again:?}");
    }
    // After one insert into `lineitem` exactly the `lineitem` columns the
    // queries read are extracted again: the other relations keep their
    // caches.
    let db = session.database_mut();
    let row = db.relation("lineitem").expect("lineitem").tuples()[0].clone();
    db.relation_mut("lineitem").expect("lineitem").insert(row).expect("same arity");
    let after_insert = extractions(&session);
    // The `lineitem` columns the queries read are the cached ones: reading
    // them again extracts nothing.
    let db = session.database();
    let lineitem = db.relation("lineitem").expect("lineitem");
    let read = (0..lineitem.arity())
        .filter(|&pos| {
            let before = ProfileSnapshot::now();
            lineitem.column(pos, db.str_pool());
            ProfileSnapshot::now().delta_since(&before).column_extractions == 0
        })
        .count() as u64;
    assert!(read > 0, "the queries read lineitem's columns through its cache");
    assert_eq!(total(&after_insert), read, "{after_insert:?}");
}
