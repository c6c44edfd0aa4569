//! Vectorized-execution coverage: per-operator agreement between the
//! vectorized and the row-at-a-time runtimes on *identical compiled plans*,
//! over column shapes the randomized integer databases of
//! `engine_vs_reference.rs` never produce (strings, dates, decimals, mixed
//! variants, all-null columns), plus batch↔row round-trips through the
//! public columnar API.

use certus::algebra::builder::{eq, eq_const, gt, is_null, neq};
use certus::algebra::{Condition, NullSemantics, Operand, RaExpr};
use certus::data::builder::rel;
use certus::data::column::Batch;
use certus::data::null::NullId;
use certus::data::value::date;
use certus::data::{Database, Relation, Value};
use certus::engine::Engine;
use certus::EngineConfig;

fn null(i: u64) -> Value {
    Value::Null(NullId(i))
}

/// A database whose columns cover every typed representation, plus a mixed
/// column (`m`: int-or-string), an all-null column (`z`), and interned
/// strings shared across both tables.
fn typed_db() -> Database {
    let mut db = Database::new();
    let r_rel = {
        let s = |t: &str| db.intern_str(t);
        rel(
            &["a", "s", "d", "f", "m", "z"],
            vec![
                vec![
                    Value::Int(1),
                    s("alpha"),
                    date(1995, 3, 1),
                    Value::Float(1.5),
                    Value::Int(7),
                    null(21),
                ],
                vec![
                    Value::Int(2),
                    s("beta"),
                    date(1996, 1, 9),
                    Value::Float(-0.0),
                    s("seven"),
                    null(22),
                ],
                vec![
                    null(1),
                    s("alpha"),
                    date(1997, 7, 4),
                    Value::Float(f64::NAN),
                    Value::Int(8),
                    null(23),
                ],
                vec![
                    Value::Int(4),
                    null(2),
                    date(1995, 3, 1),
                    Value::Float(2.5),
                    s("eight"),
                    null(24),
                ],
                vec![
                    Value::Int(2),
                    s("gamma"),
                    date(1998, 2, 2),
                    Value::Float(1.5),
                    Value::Int(7),
                    null(21),
                ],
            ],
        )
    };
    db.insert_relation("r", r_rel);
    let t_rel = {
        let s = |t: &str| db.intern_str(t);
        rel(
            &["k", "w", "e"],
            vec![
                vec![Value::Int(2), s("beta"), date(1996, 1, 9)],
                vec![Value::Int(4), s("delta"), date(1995, 3, 1)],
                vec![null(1), s("alpha"), date(1997, 7, 4)],
                vec![Value::Int(9), null(3), date(1998, 2, 2)],
            ],
        )
    };
    db.insert_relation("t", t_rel);
    // A table whose join column holds *decimals*, so joining it against
    // `r.a` (ints) exercises the incompatible-representation shortcut.
    db.insert_relation(
        "dec",
        rel(&["k"], vec![vec![Value::Decimal(100)], vec![Value::Decimal(200)], vec![null(4)]]),
    );
    db
}

/// How the key columns of a hash operator can be represented.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Keys {
    /// Both sides type the same way: typed-column keys.
    Typed,
    /// The sides type differently (ints vs decimals): typed keys that never
    /// match under SQL semantics, row-valued keys under naive semantics
    /// (where a null meets itself whatever its column's type).
    CrossType,
    /// A key column lands in the `Values` fallback (mixed variants or all
    /// null): row-valued keys.
    Fallback,
}

/// One hash join / semijoin / antijoin per key shape.
fn hash_cases() -> Vec<(RaExpr, Keys)> {
    let r = RaExpr::relation("r");
    let t = RaExpr::relation("t");
    let dec = RaExpr::relation("dec");
    vec![
        // Typed, string, and null-carrying keys.
        (r.clone().join(t.clone(), eq("a", "k")), Keys::Typed),
        (r.clone().join(t.clone(), eq("s", "w")), Keys::Typed),
        (r.clone().join(t.clone(), eq("a", "k").and(neq("s", "w"))), Keys::Typed),
        (r.clone().semi_join(t.clone(), eq("s", "w")), Keys::Typed),
        (r.clone().anti_join(t.clone(), eq("a", "k")), Keys::Typed),
        // Incompatible key representations: syntactic equality can never
        // hold between constants, the SQL antijoin keeps everything.
        (r.clone().join(dec.clone(), eq("a", "k")), Keys::CrossType),
        (r.clone().anti_join(dec, eq("a", "k")), Keys::CrossType),
        // Mixed-variant key column.
        (r.clone().join(t.clone(), eq("m", "k")), Keys::Fallback),
        (r.clone().semi_join(t.clone(), eq("m", "w")), Keys::Fallback),
        // All-null key column.
        (r.anti_join(t, eq("z", "k")), Keys::Fallback),
    ]
}

/// Filter / join / semijoin shapes over every column representation: typed
/// fast paths (ints, dates, floats with NaN/-0.0, interned strings), the
/// `Values` fallbacks (mixed `m`, all-null `z`), `LIKE`/`IN` atoms, and
/// cross-representation keys.
fn queries() -> Vec<RaExpr> {
    let r = RaExpr::relation("r");
    let t = RaExpr::relation("t");
    let mut queries: Vec<RaExpr> = hash_cases().into_iter().map(|(q, _)| q).collect();
    queries.extend(vec![
        // Typed filters, each comparison operator, over each representation.
        r.clone().select(eq_const("a", 2i64)),
        r.clone().select(gt("a", "a").or(neq("a", "a"))),
        r.clone().select(eq_const("s", "alpha")),
        r.clone().select(Condition::Cmp {
            left: Operand::Col("s".into()),
            op: certus::data::compare::CmpOp::Ge,
            right: Operand::Const(Value::str("beta")),
        }),
        r.clone().select(Condition::Cmp {
            left: Operand::Col("d".into()),
            op: certus::data::compare::CmpOp::Lt,
            right: Operand::Const(date(1996, 6, 1)),
        }),
        r.clone().select(eq_const("f", 1.5f64)),
        r.clone().select(eq_const("f", -0.0f64)),
        // Mixed and all-null columns force the Values fallback.
        r.clone().select(eq_const("m", 7i64)),
        r.clone().select(is_null("z").and(is_null("m").not())),
        // Column-to-column comparisons (typed and cross-variant).
        r.clone().select(eq("a", "a").and(neq("s", "s").not())),
        r.clone().select(eq("a", "m")),
        // LIKE and IN atoms inside the mask framework.
        r.clone().select(Condition::Like {
            expr: Operand::Col("s".into()),
            pattern: "%a%".into(),
            negated: false,
        }),
        r.clone().select(Condition::InList {
            expr: Operand::Col("a".into()),
            list: vec![Value::Int(2), Value::Int(4), Value::Decimal(100)],
            negated: true,
        }),
        // Nested loops (OR'd conditions hide the equality): bound-row
        // vectorization with hoisted inner-only atoms.
        r.clone().join(t.clone(), eq("a", "k").or(is_null("w"))),
        r.clone().join(
            t.clone(),
            eq("a", "k").or(Condition::Like {
                expr: Operand::Col("w".into()),
                pattern: "%lt%".into(),
                negated: false,
            }),
        ),
        r.clone().semi_join(t.clone(), neq("s", "w").and(eq("d", "e"))),
        r.clone().anti_join(t.clone(), eq("a", "k").or(is_null("k"))),
        // Fused pipelines: filter → project → filter → distinct chains whose
        // later filters read remapped columns.
        r.clone()
            .select(eq_const("a", 2i64).not())
            .project(&["s", "a"])
            .select(eq_const("s", "alpha"))
            .distinct(),
        r.clone().project(&["a"]).select(eq_const("a", 2i64)).union(t.clone().project(&["k"])),
    ]);
    queries
}

#[test]
fn vectorized_operators_agree_with_row_path_on_typed_columns() {
    let db = typed_db();
    for q in queries() {
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let vec_engine = Engine::configured(
                &db,
                semantics,
                EngineConfig::from_env().with_parallel_floor(0).with_vectorized(true),
            );
            let row_engine =
                Engine::configured(&db, semantics, EngineConfig::serial().with_vectorized(false));
            let plan = vec_engine.plan(&q).unwrap();
            let vectorized = vec_engine.execute_physical(&plan).unwrap().distinct().sorted();
            let row = row_engine.execute_physical(&plan).unwrap().distinct().sorted();
            assert_eq!(vectorized.tuples(), row.tuples(), "query {q}, semantics {semantics:?}");
        }
    }
}

/// The profile must say which key representation a hash operator ran on —
/// the benchmark's `engine.row_fallbacks` layer reads it. Per invocation
/// exactly one of `vec_runs` / `row_fallbacks` is recorded when the
/// vectorized evaluator was asked for (a `Values`-fallback key records
/// exactly one row fallback), neither when it was not, at every thread
/// count — and the answers never depend on any of it.
#[test]
fn hash_operators_report_the_key_representation_that_ran() {
    let db = typed_db();
    for (q, keys) in hash_cases() {
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let reference =
                Engine::configured(&db, semantics, EngineConfig::serial().with_vectorized(false))
                    .execute(&q)
                    .unwrap();
            let row_valued = match keys {
                Keys::Typed => false,
                Keys::CrossType => semantics == NullSemantics::Naive,
                Keys::Fallback => true,
            };
            for threads in [1usize, 4] {
                for vectorized in [true, false] {
                    let config = EngineConfig::with_threads(threads)
                        .with_parallel_floor(0)
                        .with_vectorized(vectorized);
                    let engine = Engine::configured(&db, semantics, config);
                    let compiled = engine.compile(&engine.plan(&q).unwrap()).unwrap();
                    let (out, profile) = engine.execute_compiled_profiled(&compiled).unwrap();
                    let context = format!(
                        "query {q}, {semantics:?}, {threads} threads, vectorized {vectorized}"
                    );
                    // Probe order everywhere: equal without sorting.
                    assert_eq!(out.tuples(), reference.tuples(), "{context}");
                    let nodes = profile.flatten();
                    let hash: Vec<_> = nodes.iter().filter(|n| n.op.starts_with("hash_")).collect();
                    assert_eq!(hash.len(), 1, "one hash operator expected: {context}");
                    let (vec_runs, fallbacks) = (hash[0].vec_runs, hash[0].row_fallbacks);
                    assert_eq!(hash[0].invocations, 1, "{context}");
                    let expected = match (vectorized, row_valued) {
                        (false, _) => (0, 0),
                        (true, false) => (1, 0),
                        (true, true) => (0, 1),
                    };
                    assert_eq!((vec_runs, fallbacks), expected, "{keys:?} keys: {context}");
                }
            }
        }
    }
}

#[test]
fn batches_roundtrip_every_base_table() {
    let db = typed_db();
    let pool = db.str_pool();
    for name in ["r", "t", "dec"] {
        let relation = db.relation(name).unwrap();
        for morsel in [1, 2, 1024] {
            let batches = relation.to_batches(morsel, pool);
            let back = Relation::from_batches(&batches, pool).unwrap();
            assert_eq!(&back, relation, "table {name}, morsel {morsel}");
        }
    }
}

#[test]
fn operator_outputs_roundtrip_through_batches() {
    // Batch conversion is lossless on operator *outputs* too (fresh
    // schemas, computed rows) — including empty results.
    let db = typed_db();
    let pool = db.str_pool();
    let engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::serial());
    for q in queries() {
        let out = engine.execute(&q).unwrap();
        let batches = out.to_batches(3, pool);
        if out.is_empty() {
            assert_eq!(batches.len(), 1);
            assert!(batches[0].is_empty());
        }
        let back = Relation::from_batches(&batches, pool).unwrap();
        assert_eq!(back, out, "query {q}");
    }
}

#[test]
fn all_null_and_empty_batches_roundtrip() {
    let db = Database::new();
    let pool = db.str_pool();
    let all_null = rel(&["x", "y"], vec![vec![null(1), null(2)], vec![null(3), null(1)]]);
    let b = Batch::from_rows(all_null.schema().clone(), all_null.tuples(), pool);
    assert_eq!(b.to_rows(pool), all_null.tuples());
    assert!(b.column(0).nulls().any_null());
    assert_eq!(b.column(1).nulls().null_id(1), Some(NullId(1)));
    let empty = rel(&["x"], vec![]);
    let batches = empty.to_batches(16, pool);
    assert_eq!(Relation::from_batches(&batches, pool).unwrap(), empty);
}

#[test]
fn vectorization_toggle_is_observable_in_config() {
    assert!(EngineConfig::serial().vectorized);
    assert!(!EngineConfig::serial().with_vectorized(false).vectorized);
    // The `CERTUS_VECTOR` parsing, checked without mutating the process
    // environment (sibling tests read it concurrently via `from_env`).
    for (val, expect) in
        [(Some("0"), false), (Some("false"), false), (Some(" OFF "), false), (Some("1"), true)]
    {
        assert_eq!(EngineConfig::parse_vector_flag(val), expect, "CERTUS_VECTOR={val:?}");
    }
    assert!(EngineConfig::parse_vector_flag(None));
}
