//! End-to-end pipeline tests: generate a TPC-H workload, inject nulls, run
//! the paper's queries and their certainty-preserving rewritings through the
//! engine, and check the paper's headline claims on the results.

use certus::plan::physical::{heuristic_plan_with, ExplainPlan, JoinAlgo, PhysicalExpr, SemiAlgo};
use certus::tpch::fp_detect::count_false_positives;
use certus::tpch::{query_by_number, Workload};
use certus::{
    CertainRewriter, Certainty, Database, Engine, EngineConfig, NullSemantics, Parallelism,
    Relation, Session,
};
use std::fmt::Write;

/// The environment-driven SQL engine these tests run on.
fn sql_engine(db: &Database) -> Engine<'_> {
    Engine::configured(db, NullSemantics::Sql, EngineConfig::default())
}

#[test]
fn sql_produces_false_positives_and_rewriting_eliminates_them() {
    let workload = Workload::new(0.0004, 0.06, 21);
    let db = workload.incomplete_instance();
    let engine = sql_engine(&db);
    let rewriter = CertainRewriter::new();
    let params = workload.params(&db, 0);

    let mut any_fp = false;
    for q in 1..=4usize {
        let expr = query_by_number(q, &params).expect("query exists");
        let sql = engine.execute(&expr).expect("query runs");
        let plus = rewriter.rewrite_plus(&expr, &db).expect("translation succeeds");
        let certain = engine.execute(&plus).expect("rewritten query runs");

        let sql_fp = count_false_positives(q, &db, &params, &sql);
        let plus_fp = count_false_positives(q, &db, &params, &certain);
        any_fp |= sql_fp > 0;
        assert_eq!(plus_fp, 0, "Q{q}+ returned a detected false positive");
    }
    assert!(any_fp, "at a 6% null rate at least one query should show false positives");
}

#[test]
fn rewriting_is_identity_behaviour_on_complete_databases() {
    // Third guarantee of the paper's summary: on databases without nulls the
    // original query and its rewriting produce the same results.
    let workload = Workload::new(0.0004, 0.0, 3);
    let db = workload.complete_instance();
    let engine = sql_engine(&db);
    let rewriter = CertainRewriter::new();
    let params = workload.params(&db, 1);
    for q in 1..=4usize {
        let expr = query_by_number(q, &params).expect("query exists");
        let plus = rewriter.rewrite_plus(&expr, &db).expect("translation succeeds");
        let a = engine.execute(&expr).expect("runs").sorted();
        let b = engine.execute(&plus).expect("runs").sorted();
        assert_eq!(a.tuples(), b.tuples(), "Q{q} differs on a complete instance");
    }
}

#[test]
fn recall_experiment_certain_sql_answers_are_preserved() {
    // Section 7: "our procedure returns precisely certain answers that are
    // also returned by SQL evaluation" — recall was 100% in every experiment.
    // We check the measurable proxy for Q1 and Q3, whose detectors flag
    // *exactly* the answers the weakened NOT EXISTS can drop (for Q4 the
    // paper's Algorithm 2 is strictly weaker than the rewriting, so the proxy
    // does not apply): every SQL answer not flagged as a false positive by
    // the detector is also returned by Q+.
    let workload = Workload::new(0.0004, 0.04, 33);
    let db = workload.incomplete_instance();
    let engine = sql_engine(&db);
    let rewriter = CertainRewriter::new();
    let params = workload.params(&db, 2);
    for q in [1usize, 3] {
        let expr = query_by_number(q, &params).expect("query exists");
        let sql = engine.execute(&expr).expect("runs");
        let plus = rewriter.rewrite_plus(&expr, &db).expect("translates");
        let certain = engine.execute(&plus).expect("runs");
        for t in sql.iter() {
            let flagged = match q {
                1 => certus::tpch::fp_detect::detect_q1(&db, t),
                _ => certus::tpch::fp_detect::detect_q3(&db, t),
            };
            if !flagged {
                assert!(certain.contains(t), "Q{q}+ missed the certain SQL answer {t}");
            }
        }
    }
}

/// Nested-loop join and semijoin nodes of a physical plan.
fn nested_loop_nodes(plan: &PhysicalExpr) -> usize {
    let here = matches!(
        plan,
        PhysicalExpr::Join { algo: JoinAlgo::NestedLoop, .. }
            | PhysicalExpr::Semi { algo: SemiAlgo::NestedLoop, .. }
    );
    here as usize + plan.children().into_iter().map(nested_loop_nodes).sum::<usize>()
}

/// At the two shapes the benchmark runs (scale 0.002 and 0.0001, null rate
/// 0.03, seed 42), every join the translation produces on Q⁺1–Q⁺4 is a hash
/// operator — in the raw translation too: its `A = B OR A IS NULL` conditions
/// are null-aware hash keys, so it needs no rescue from the rewrite passes —
/// and the two plans that were already right have not moved: for
/// Q⁺2 and Q⁺3 the heuristic `PhysicalExpr` and the `Session::explain` text
/// are, byte for byte, what commit d2876e0 (before null-aware keys,
/// alias-correct key extraction and join-condition pushdown) produced. The
/// fixture is that commit's output of the very statements below.
#[test]
fn certain_answer_plans_have_no_nested_loops_and_q2_q3_plans_stay_put() {
    let mut q2_q3_plans = String::new();
    for scale in [0.002, 0.0001] {
        let workload = Workload::new(scale, 0.03, 42);
        let db = workload.incomplete_instance();
        let params = workload.params(&db, 0);
        let session = Session::builder(db).threads(1).build();
        let db = session.database();
        for q in 1..=4usize {
            let expr = query_by_number(q, &params).expect("query exists");
            let raw = CertainRewriter::unoptimized().rewrite_plus(&expr, db).expect("translates");
            let raw_phys = heuristic_plan_with(&raw, db, &Parallelism::new(1)).expect("plans");
            assert_eq!(nested_loop_nodes(&raw_phys), 0, "scale {scale}, raw Q{q}+: {raw_phys:?}");
            let plus = CertainRewriter::new().rewrite_plus(&expr, db).expect("translates");
            let phys = heuristic_plan_with(&plus, db, &Parallelism::new(1)).expect("plans");
            assert_eq!(nested_loop_nodes(&phys), 0, "scale {scale}, Q{q}+: {phys:?}");
            if q == 2 || q == 3 {
                let explain = session.explain(&expr, Certainty::CertainPlus).expect("explains");
                writeln!(q2_q3_plans, "=== scale {scale} Q{q}+ heuristic\n{phys:?}").unwrap();
                writeln!(q2_q3_plans, "=== scale {scale} Q{q}+ explain\n{explain}").unwrap();
            }
        }
    }
    assert_eq!(q2_q3_plans, include_str!("fixtures/q2p_q3p_plans_at_d2876e0.txt"));
}

/// `Session::explain` of Q1–Q4, as written and under both translations, at
/// one and four threads: plans *and* estimates, byte for byte what commit
/// 6cc32f2 (the last with a second, logical cost model beside the
/// planner's) printed. A change to the cost formulas updates the fixture on
/// purpose; a refactor of where they are computed must leave it alone.
#[test]
fn explain_text_of_every_query_and_translation_stays_put() {
    let workload = Workload::new(0.001, 0.02, 99);
    let db = workload.incomplete_instance();
    let params = workload.params(&db, 0);
    let mut text = String::new();
    for threads in [1usize, 4] {
        let session = Session::builder(db.clone()).threads(threads).build();
        for q in 1..=4usize {
            let expr = query_by_number(q, &params).expect("query exists");
            for certainty in [Certainty::Plain, Certainty::CertainPlus, Certainty::PossibleStar] {
                let explain = session.explain(&expr, certainty).expect("explains");
                writeln!(text, "=== {threads} threads Q{q} {certainty:?}\n{explain}").unwrap();
            }
        }
    }
    assert_eq!(text, include_str!("fixtures/explain_at_6cc32f2.txt"));
}

/// FNV-1a (64 bits) over the rendered rows, one per line, in answer order.
fn ordered_digest(rel: &Relation) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in rel.iter() {
        for b in format!("{t}\n").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// On the benchmark's instance (scale 0.002, null rate 0.03, seed 42) the
/// answers of Q1–Q4 and Q⁺1–Q⁺4 are, row for row and in order, the ones
/// commit 29a4565 returned — when operators still handed each other built
/// rows — at threads {1, 4} (every exchange fanning out) × vectorized on/off.
/// The fixture is that commit's row count and ordered digest per class.
#[test]
fn tpch_answers_keep_their_rows_and_order_in_every_configuration() {
    let workload = Workload::new(0.002, 0.03, 42);
    let db = workload.incomplete_instance();
    let params = workload.params(&db, 0);
    for threads in [1usize, 4] {
        for vectorized in [true, false] {
            let config = EngineConfig::with_threads(threads)
                .with_parallel_floor(0)
                .with_vectorized(vectorized);
            let session = Session::builder(db.clone()).config(config).build();
            let mut answers = String::new();
            for q in 1..=4usize {
                let expr = query_by_number(q, &params).expect("query exists");
                for (certainty, suffix) in [(Certainty::Plain, ""), (Certainty::CertainPlus, "p")] {
                    let prepared = session.prepare(&expr, certainty).expect("prepares");
                    let answer = session.execute_prepared(&prepared).expect("runs");
                    let rel = answer.relation();
                    writeln!(answers, "q{q}{suffix} {} {:016x}", rel.len(), ordered_digest(rel))
                        .unwrap();
                }
            }
            assert_eq!(
                answers,
                include_str!("fixtures/answers_at_29a4565.txt"),
                "{threads} threads, vectorized {vectorized}"
            );
        }
    }
}

/// The filters of an explain tree, each with whether a join runs beneath it;
/// returns whether `node`'s subtree holds a join.
fn filters_over_joins(node: &ExplainPlan, out: &mut Vec<(String, bool)>) -> bool {
    let mut below = false;
    for child in &node.children {
        below |= filters_over_joins(child, out);
    }
    if node.op.starts_with("Filter") {
        out.push((node.op.clone(), below));
    }
    below || node.op.contains("Join")
}

/// The queries as written take the same rewrite passes as their
/// translations: in the plans `prepare` compiles for plain Q1 and Q4, the
/// single-table conjuncts that the queries write as join conditions
/// (`l3.l_receiptdate > l3.l_commitdate`, `p_name LIKE …`) are filters
/// beneath the joins, and no filter is left above one.
#[test]
fn plain_q1_and_q4_are_prepared_with_their_filters_beneath_the_joins() {
    let workload = Workload::new(0.0001, 0.03, 42);
    let session = Session::builder(workload.incomplete_instance()).threads(1).build();
    let params = workload.params(session.database(), 0);
    for (q, pushed) in [(1, "l3.l_receiptdate > l3.l_commitdate"), (4, "p_name LIKE")] {
        let expr = query_by_number(q, &params).expect("query exists");
        let explain = session.explain(&expr, Certainty::Plain).expect("explains");
        let mut filters = Vec::new();
        filters_over_joins(&explain, &mut filters);
        assert!(filters.iter().all(|(_, over_join)| !over_join), "Q{q}:\n{explain}");
        assert!(filters.iter().any(|(op, _)| op.contains(pushed)), "Q{q}:\n{explain}");
    }
}
