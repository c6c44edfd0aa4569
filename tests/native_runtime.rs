//! Acceptance check for the compiled operator runtime: re-executing a
//! `PreparedQuery` must perform **zero** schema inference and **zero**
//! column-name resolution. The `certus-data` profiling counters instrument
//! exactly those two operations; this file contains a single
//! test (integration-test files run as their own process) so no concurrent
//! engine work can pollute the counter deltas.

use certus::data::profile::ProfileSnapshot;
use certus::engine::CompiledPlan;
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
}
