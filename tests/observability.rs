//! Observability coverage across the public facade: per-execution
//! [`certus::QueryProfile`]s agree with the relations the engine returns,
//! `EXPLAIN ANALYZE` ([`certus::Session::explain_analyze`]) annotates every
//! node with estimates *and* actuals, divergence is flagged where the cost
//! model misestimates a skewed-null workload, and profiles stay well-formed
//! across thread counts and with vectorization on or off.

use certus::algebra::builder::{eq, eq_const};
use certus::data::builder::rel;
use certus::data::null::NullId;
use certus::data::{Database, Value};
use certus::obs::names;
use certus::tpch::Workload;
use certus::{Certainty, EngineConfig, ExplainPlan, QueryProfile, RaExpr, Session};

fn paper_db() -> Database {
    let mut db = Database::new();
    db.insert_relation(
        "r",
        rel(&["a"], vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]]),
    );
    db.insert_relation("s", rel(&["b"], vec![vec![Value::Int(2)], vec![Value::Null(NullId(1))]]));
    db
}

fn paper_query() -> RaExpr {
    RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"))
}

/// Walk a profile tree checking the structural invariants every execution
/// must satisfy: non-negative inclusive walls that cover the children (the
/// serial case; parallel paths may overlap, so callers choose when to apply
/// this), and leaf scans that report the base relation's cardinality.
fn assert_serial_walls(profile: &QueryProfile) {
    let child_ns: u64 = profile.children.iter().map(|c| c.wall_ns).sum();
    assert!(
        profile.wall_ns >= child_ns || profile.wall_ns == 0,
        "inclusive wall of {} ({}) below its children's sum ({})",
        profile.op,
        profile.wall_ns,
        child_ns
    );
    for c in &profile.children {
        assert_serial_walls(c);
    }
}

#[test]
fn profile_row_counts_match_the_relations() {
    let db = paper_db();
    let session = Session::builder(db).config(EngineConfig::serial()).build();
    for certainty in [Certainty::Plain, Certainty::CertainPlus, Certainty::PossibleStar] {
        let prepared = session.prepare(&paper_query(), certainty).unwrap();
        let (answers, profiles) = session.execute_prepared_profiled(&prepared).unwrap();
        assert_eq!(profiles.len(), 1);
        let profile = &profiles[0];
        assert_eq!(
            profile.rows_out as usize,
            answers.len(),
            "{certainty:?}: profile root must report the answer cardinality"
        );
        assert_serial_walls(profile);
        // Scans report the stored relations' sizes.
        for node in profile.flatten() {
            match node.op.as_str() {
                "scan(r)" => assert_eq!(node.rows_out, 3),
                "scan(s)" => assert_eq!(node.rows_out, 2),
                _ => {}
            }
        }
    }
}

#[test]
fn explain_analyze_annotates_every_node() {
    let w = Workload::new(0.0005, 0.05, 907);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let q4 = certus::tpch::q4(&params);
    let session = Session::builder(db).config(EngineConfig::serial()).build();
    let analyzed = session.explain_analyze(&q4, Certainty::CertainPlus).unwrap();
    let explain = session.explain(&q4, Certainty::CertainPlus).unwrap();
    assert_eq!(analyzed.node_count(), explain.node_count(), "annotated tree mirrors EXPLAIN");
    // Every node carries an estimate and an actual, and the text renderer
    // shows them side by side on every line.
    let rendered = analyzed.to_string();
    assert_eq!(rendered.lines().count(), analyzed.node_count());
    for line in rendered.lines() {
        assert!(line.contains("est≈") && line.contains("act="), "unannotated line: {line}");
    }
    for node in analyzed.flatten() {
        assert!(!node.op.is_empty());
        assert!(node.rows_est >= 0.0);
        assert!(node.actual.is_some(), "{} has no actuals", node.op);
    }
    // The root actual is the answer cardinality.
    let expected = session.execute(&q4, Certainty::CertainPlus).unwrap().len() as u64;
    assert_eq!(analyzed.root().actual.as_ref().unwrap().rows, expected);
    // JSON rendering stays well-formed (smoke: balanced braces, keyed rows).
    let json = analyzed.to_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches("\"rows_act\"").count(), analyzed.node_count());
}

/// What sits between `lineitem` and Q4⁺'s anti-join, countably: on the
/// benchmark's instance (scale 0.002, null rate 0.03, seed 42) the three
/// joins used to emit 12,117, 20,021 and 2,042 rows — every `lineitem` row
/// with a `NULL` key paired with the whole other side — for an anti-join that
/// reads one column and asks only whether a partner exists. Then `⋉ part`
/// and `⋉ nation` became semijoins, and the join with `supplier` still
/// emitted 2,196 rows out of 1,360, because `⋉ nation` above it read
/// `s_nationkey`. With that key lookup pushed into `supplier`, the join is a
/// semijoin too: two semijoins over `lineitem`, each stopping at the first
/// partner. No join-like operator builds a row: the semijoins keep ids, so
/// each builds 0 values; the root projection builds the answer, rows × width.
#[test]
fn q4_plus_joins_emit_only_the_columns_an_ancestor_reads() {
    let w = Workload::new(0.002, 0.03, 42);
    let db = w.incomplete_instance();
    let q4 = certus::tpch::q4(&w.params(&db, 0));
    let session = Session::builder(db).config(EngineConfig::serial()).build();
    let prepared = session.prepare(&q4, Certainty::CertainPlus).unwrap();
    let (answers, profiles) = session.execute_prepared_profiled(&prepared).unwrap();
    // Project ← anti-join ← [orders, ⋉ part ← ⋉ (supplier ⋉ nation) ← lineitem].
    let root = &profiles[0];
    let mut node = &root.children[0].children[1];
    let mut chain = Vec::new();
    while node.op != "scan(lineitem)" {
        chain.push((node.op.as_str(), node.rows_out, node.values_out));
        node = &node.children[0];
    }
    // Operator, rows, values built (commit 29a4565 built 66,318 values in
    // the three joins of that time, and counted 1,360 × 9 more for rows it
    // passed on; commit 2f86ccf's chain was `hash_semi` 213 ← `hash_join`
    // 2,196 ← `hash_semi` 1,360).
    assert_eq!(chain, vec![("hash_semi", 169, 0), ("hash_semi", 1_536, 0)]);
    let width = answers.relation().arity() as u64;
    assert_eq!((root.op.as_str(), root.rows_out, root.values_out), ("fused", 2_835, 2_835 * width));
    for node in root.flatten().into_iter().skip(1) {
        assert_eq!(node.values_out, 0, "{} built values below the root", node.op);
    }
    // Nothing is narrowed, so EXPLAIN ANALYZE tags no join with `cols=`.
    let analyzed = session.explain_analyze(&q4, Certainty::CertainPlus).unwrap();
    assert!(!analyzed.to_string().contains("cols="), "{analyzed}");
}

/// The standing form of that finding: on the benchmark's instance no
/// join-like operator of Q1–Q4 or of their translations emits more rows than
/// the largest base relation it reads (before joins that only test
/// existence became semijoins, Q4⁺ emitted 20,021 rows from a 12,006-row
/// `lineitem`), nor more than the larger of
/// its own two inputs. Commit 2f86ccf failed the second test on Q4⁺'s
/// null-aware join: 1,360 and 20 rows in, 2,196 out, because the rows with a
/// `NULL` `l_suppkey` paired with all 20 suppliers.
#[test]
fn no_join_of_the_benchmark_classes_emits_more_rows_than_its_largest_table() {
    let w = Workload::new(0.002, 0.03, 42);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let session = Session::builder(db).config(EngineConfig::serial()).build();
    let per_run = |node: &QueryProfile| node.rows_out / node.invocations.max(1);
    for number in 1..=4 {
        let query = certus::tpch::query_by_number(number, &params).unwrap();
        for certainty in [Certainty::Plain, Certainty::CertainPlus] {
            let prepared = session.prepare(&query, certainty).unwrap();
            let (_, profiles) = session.execute_prepared_profiled(&prepared).unwrap();
            for node in profiles[0].flatten() {
                if !matches!(node.op.as_str(), "hash_join" | "nl_join" | "hash_semi" | "nl_semi") {
                    continue;
                }
                let largest_table = node
                    .flatten()
                    .iter()
                    .filter(|n| n.op.starts_with("scan("))
                    .map(|scan| per_run(scan))
                    .max()
                    .unwrap();
                assert!(
                    node.rows_out <= largest_table,
                    "Q{number} {certainty:?}: {} emits {} rows over tables of at most {largest_table}",
                    node.op,
                    node.rows_out
                );
                let largest_input = node.children.iter().map(per_run).max().unwrap();
                assert!(
                    per_run(node) <= largest_input,
                    "Q{number} {certainty:?}: {} emits {} rows from inputs of at most {largest_input}",
                    node.op,
                    per_run(node)
                );
            }
        }
    }
}

#[test]
fn skewed_nulls_flag_estimate_divergence() {
    // The translated Q4+ keeps `… OR x IS NULL` disjunction joins whose
    // selectivity the cost model guesses generically; on an instance with
    // plenty of nulls the actuals run away from the estimates, which is
    // exactly what the divergence flag is for.
    let w = Workload::new(0.001, 0.05, 907);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let q4 = certus::tpch::q4(&params);
    let session = Session::builder(db).config(EngineConfig::serial()).build();
    let analyzed = session.explain_analyze(&q4, Certainty::CertainPlus).unwrap();
    assert!(
        analyzed.any_divergence(),
        "expected at least one est-vs-act divergence on Q4+:\n{analyzed}"
    );
    // And the renderer surfaces the flag.
    assert!(analyzed.to_string().contains("est↯act"));
}

/// Q⁺2's decorrelated anti-join finds its witness on the benchmark's
/// instance (scale 0.002, null rate 0.03, seed 42) and never runs its left
/// input. EXPLAIN ANALYZE prints those nodes as never executed, flags none
/// of them as misestimated (commit 61ca347 printed `Scan orders (rows
/// est≈3000 act=0, …) [est↯act ×6000]`, the largest flag of all eight
/// classes) and says `"executed": false` in JSON.
#[test]
fn nodes_a_short_circuit_skipped_are_never_executed() {
    let w = Workload::new(0.002, 0.03, 42);
    let db = w.incomplete_instance();
    let q2 = certus::tpch::q2(&w.params(&db, 0));
    for config in [EngineConfig::serial(), EngineConfig::with_threads(4).with_parallel_floor(0)] {
        let threads = config.threads;
        let session = Session::builder(db.clone()).config(config).build();
        let analyzed = session.explain_analyze(&q2, Certainty::CertainPlus).unwrap();
        let skipped: Vec<&str> = (analyzed.flatten().into_iter())
            .filter(|node| !node.actual.as_ref().unwrap().executed)
            .map(|node| node.op.as_str())
            .collect();
        // The hash anti-join, the customer filter, both scans — and at four
        // threads the exchanges above the scans.
        assert_eq!(skipped.len(), if threads == 1 { 4 } else { 6 }, "{analyzed}");
        assert!(skipped.contains(&"Scan orders") && skipped.contains(&"Scan customer"));
        let text = analyzed.to_string();
        let never: Vec<&str> = text.lines().filter(|l| l.ends_with("never executed)")).collect();
        assert_eq!(never.len(), skipped.len(), "{text}");
        assert!(analyzed.flatten().iter().all(|node| node.divergence() < 100.0), "{text}");
        assert_eq!(analyzed.to_json().matches("\"executed\": false").count(), skipped.len());
    }
}

#[test]
fn profiles_are_well_formed_across_thread_counts() {
    let w = Workload::new(0.0005, 0.03, 41);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let q3 = certus::tpch::q3(&params);
    let serial = Session::builder(w.incomplete_instance()).config(EngineConfig::serial()).build();
    let parallel =
        Session::builder(db).config(EngineConfig::with_threads(4).with_parallel_floor(0)).build();
    let (serial_answers, serial_profiles) = {
        let p = serial.prepare(&q3, Certainty::CertainPlus).unwrap();
        serial.execute_prepared_profiled(&p).unwrap()
    };
    let (parallel_answers, parallel_profiles) = {
        let p = parallel.prepare(&q3, Certainty::CertainPlus).unwrap();
        parallel.execute_prepared_profiled(&p).unwrap()
    };
    assert_eq!(
        serial_answers.relation().sorted().tuples(),
        parallel_answers.relation().sorted().tuples(),
        "threads changed Q3+ answers"
    );
    for (profile, answers) in
        [(&serial_profiles[0], &serial_answers), (&parallel_profiles[0], &parallel_answers)]
    {
        assert_eq!(profile.rows_out as usize, answers.len());
        assert!(profile.node_count() >= 1);
        for node in profile.flatten() {
            assert!(node.invocations >= 1 || node.rows_out == 0, "dead node {}", node.op);
        }
    }
    // The parallel run actually fanned out somewhere and said so.
    let fanned: u64 = parallel_profiles[0].flatten().iter().map(|n| n.workers).sum();
    assert!(fanned > 0, "no operator recorded parallel workers:\n{:?}", parallel_profiles[0]);
    // Serial walls nest; parallel walls may overlap, so only check serial.
    assert_serial_walls(&serial_profiles[0]);
}

#[test]
fn parallel_profiles_report_pool_bounded_workers() {
    use certus::exec::Pool;
    use std::sync::Arc;

    // A private pool of known width: worker counts in profiles must come
    // from the pool (its width caps concurrency), not from the plan's
    // partition fan-out — here 16-way partitioning on a 3-wide pool.
    let pool = Arc::new(Pool::new(3));
    let w = Workload::new(0.0005, 0.03, 63);
    let db = w.incomplete_instance();
    let params = w.params(&db, 0);
    let q3 = certus::tpch::q3(&params);
    let session = Session::builder(db)
        .config(EngineConfig::with_threads(16).with_parallel_floor(0))
        .worker_pool(pool.clone())
        .build();
    let prepared = session.prepare(&q3, Certainty::CertainPlus).unwrap();
    let (_, profiles) = session.execute_prepared_profiled(&prepared).unwrap();
    let mut fanned = 0u64;
    for node in profiles[0].flatten() {
        // Every parallel dispatch accumulates (morsels, workers) pairs with
        // workers ≤ min(pool width, morsels) — so the sums obey the same
        // bounds even after several dispatches on one node.
        assert!(
            node.workers <= node.morsels,
            "{}: more workers ({}) than morsels ({})",
            node.op,
            node.workers,
            node.morsels
        );
        if node.workers > 0 {
            assert!(node.morsels > 0, "{}: workers without morsels", node.op);
        }
        fanned += node.workers;
    }
    assert!(fanned > 0, "no operator recorded parallel workers");
    assert!(pool.peak_busy_workers() <= pool.width());
}

#[test]
fn vectorization_flags_the_path_taken() {
    let q = RaExpr::relation("r").select(eq_const("a", 3i64)).project(&["b"]);
    let run = |vectorized: bool| -> (usize, QueryProfile) {
        let mut db = Database::new();
        let rows = (0..64).map(|i| vec![Value::Int(i % 8), Value::Int(i)]).collect::<Vec<_>>();
        db.insert_relation("r", rel(&["a", "b"], rows));
        let config = EngineConfig::serial().with_vectorized(vectorized);
        let session = Session::builder(db).config(config).build();
        let prepared = session.prepare(&q, Certainty::Plain).unwrap();
        let (answers, profiles) = session.execute_prepared_profiled(&prepared).unwrap();
        (answers.len(), profiles.into_iter().next().unwrap())
    };

    let (vec_len, vec_profile) = run(true);
    let (row_len, row_profile) = run(false);
    assert_eq!(vec_len, 8);
    assert_eq!(row_len, 8);
    let vec_runs = |p: &QueryProfile| p.flatten().iter().map(|n| n.vec_runs).sum::<u64>();
    assert!(vec_runs(&vec_profile) > 0, "vectorized run must tag a vec path");
    assert_eq!(vec_runs(&row_profile), 0, "row run must not tag any vec path");
    // Both report identical answer cardinality and per-step survivors.
    assert_eq!(vec_profile.rows_out, row_profile.rows_out);
    let steps = |p: &QueryProfile| {
        p.flatten()
            .iter()
            .flat_map(|n| n.steps.iter().map(|s| (s.op.clone(), s.rows_out)))
            .collect::<Vec<_>>()
    };
    assert_eq!(steps(&vec_profile), steps(&row_profile), "per-step survivor counts must agree");
}

#[test]
fn session_executions_feed_the_registry_and_analyze_renders() {
    let session = Session::builder(paper_db()).config(EngineConfig::serial()).build();
    let before = certus::obs::registry().snapshot();
    let analyzed: ExplainPlan =
        session.explain_analyze(&paper_query(), Certainty::CertainPlus).unwrap();
    assert!(analyzed.to_string().contains("act="));
    session.execute(&paper_query(), Certainty::Both).unwrap();
    let delta = certus::obs::registry().snapshot().delta_since(&before);
    // ≥, not ==: the registry is process-wide and tests share the process.
    assert!(delta.counter(names::SESSION_EXECUTIONS) >= 1);
    assert!(delta.counter(names::PLAN_CACHE_MISSES) >= 1);
}
