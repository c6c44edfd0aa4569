//! The physical engine must agree with the reference evaluator on randomly
//! generated databases and queries — under both SQL and naive semantics —
//! and the planner's rewrite passes must be result-equivalent to the
//! unplanned reference evaluation (each pass individually and the full
//! pipeline), on randomized databases with nulls.

use certus::algebra::builder::{eq, eq_const, is_null, neq};
use certus::algebra::{eval, NullSemantics, RaExpr};
use certus::data::builder::rel;
use certus::data::null::NullId;
use certus::data::{Database, Value};
use certus::plan::physical::{JoinAlgo, PhysicalExpr, SemiAlgo};
use certus::plan::{NullOk, PassManager, PhysicalPlanner, PASSES};
use certus::{Condition, Engine, EngineConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random two-table database with marked nulls: `r(a, b)` and `s(c, d)`,
/// 0–7 rows each, values drawn from a small domain so joins actually match.
fn random_db(rng: &mut StdRng) -> Database {
    let value = |rng: &mut StdRng| {
        if rng.gen_bool(0.25) {
            Value::Null(NullId(rng.gen_range(1..5u64)))
        } else {
            Value::Int(rng.gen_range(0..5i64))
        }
    };
    let rows = |rng: &mut StdRng| {
        let n = rng.gen_range(0..8usize);
        (0..n).map(|_| vec![value(rng), value(rng)]).collect::<Vec<_>>()
    };
    let mut db = Database::new();
    let r_rows = rows(rng);
    let s_rows = rows(rng);
    db.insert_relation("r", rel(&["a", "b"], r_rows));
    db.insert_relation("s", rel(&["c", "d"], s_rows));
    db
}

/// The query shapes under test over `db`'s tables: every physical strategy
/// (hash / nested loop / decorrelated), plus set operations and projections
/// — and one query per operator the engine's compiled runtime implements
/// natively (rename, intersection, unification semijoins, distinct,
/// aggregation, `LIKE`/`IN` conditions), so every native operator is pitted
/// against the reference evaluator, and a division's expansion.
fn engine_queries(db: &Database) -> Vec<RaExpr> {
    use certus::algebra::{AggExpr, AggFunc, Condition, Operand};
    vec![
        RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c")),
        RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(is_null("d"))),
        RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").and(neq("b", "d"))),
        RaExpr::relation("r").semi_join(RaExpr::relation("s"), eq("a", "c")),
        RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "c")),
        RaExpr::relation("r").anti_join(RaExpr::relation("s"), is_null("c")),
        RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "c").or(is_null("c"))),
        RaExpr::relation("r").select(eq_const("a", 2i64)).project(&["a"]),
        RaExpr::relation("r").project(&["a"]).union(RaExpr::relation("s").project(&["c"])),
        RaExpr::relation("r").project(&["a"]).difference(RaExpr::relation("s").project(&["c"])),
        RaExpr::relation("r").product(RaExpr::relation("s")).select(neq("b", "d")),
        // Native-runtime coverage: rename, intersect, unify semi/anti,
        // distinct, aggregate, IN-list conditions; and division.
        RaExpr::relation("r").rename(&["x", "y"]).select(eq_const("x", 1i64)).project(&["y"]),
        RaExpr::relation("r").project(&["a"]).intersect(RaExpr::relation("s").project(&["c"])),
        RaExpr::relation("r").unify_semi_join(RaExpr::relation("s")),
        RaExpr::relation("r").unify_anti_join(RaExpr::relation("s")),
        RaExpr::relation("r")
            .divide(RaExpr::relation("s").project(&["c"]).rename(&["b"]).distinct(), db)
            .unwrap(),
        RaExpr::relation("r").project(&["b"]).distinct().distinct(),
        // COUNT aggregates only: MIN/MAX/SUM/AVG over an all-null group
        // yield a *fresh* null, which can never compare equal across two
        // independent evaluations.
        RaExpr::relation("r").aggregate(
            &["a"],
            vec![AggExpr::count_star("n"), AggExpr::new(AggFunc::Count, "b", "nb")],
        ),
        RaExpr::relation("r").select(Condition::InList {
            expr: Operand::Col("a".into()),
            list: vec![certus::data::Value::Int(1), certus::data::Value::Int(3)],
            negated: true,
        }),
    ]
}

#[test]
fn engine_agrees_with_reference_evaluator() {
    // Two database streams: the second is the one the retired physical-level
    // oracle (a second interpreter renting the reference evaluator) ran on.
    for (seed, cases) in [(0xE26, 64), (0xC0DE, 48)] {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..cases {
            let db = random_db(&mut rng);
            for q in engine_queries(&db) {
                for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
                    let engine = Engine::configured(&db, semantics, EngineConfig::default());
                    let engine_out = engine.execute(&q).unwrap().distinct().sorted();
                    let reference_out = eval(&q, &db, semantics).unwrap().distinct().sorted();
                    assert_eq!(
                        engine_out.tuples(),
                        reference_out.tuples(),
                        "seed {seed:#x}, case {case}, query {q}, semantics {semantics:?}"
                    );
                }
            }
        }
    }
}

/// The vectorized runtime must agree with both the row-at-a-time compiled
/// runtime (same compiled plans, different execution configuration) and the
/// reference evaluator, on randomized null databases, under both semantics —
/// the `parallel_floor(0)` configuration also drives the morsel-parallel
/// paths when `CERTUS_THREADS > 1`.
#[test]
fn vectorized_runtime_agrees_with_row_path_and_reference() {
    let mut rng = StdRng::seed_from_u64(0x5EC7);
    for case in 0..48 {
        let db = random_db(&mut rng);
        for q in engine_queries(&db) {
            for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
                let vec_engine = Engine::configured(
                    &db,
                    semantics,
                    EngineConfig::from_env().with_parallel_floor(0).with_vectorized(true),
                );
                let row_engine = Engine::configured(
                    &db,
                    semantics,
                    EngineConfig::serial().with_vectorized(false),
                );
                // Plan with the (possibly parallel) vectorized engine so the
                // plan carries exchanges when CERTUS_THREADS > 1; the serial
                // row engine runs the same plan with its exchanges inert.
                let plan = vec_engine.plan(&q).unwrap();
                let vectorized = vec_engine.execute_physical(&plan).unwrap().distinct().sorted();
                let row = row_engine.execute_physical(&plan).unwrap().distinct().sorted();
                let reference = eval(&q, &db, semantics).unwrap().distinct().sorted();
                assert_eq!(
                    vectorized.tuples(),
                    row.tuples(),
                    "vectorized vs row path: case {case}, query {q}, semantics {semantics:?}"
                );
                assert_eq!(
                    vectorized.tuples(),
                    reference.tuples(),
                    "vectorized vs reference: case {case}, query {q}, semantics {semantics:?}"
                );
            }
        }
    }
}

/// γ against the reference evaluator row for row — *no sorting*: groups come
/// out in first-occurrence order whatever the thread count and the key
/// representation, a marked null groups with itself and with nothing else,
/// and an empty aggregate is a null in its group's position (a fresh one, so
/// only its being a null can be compared).
#[test]
fn aggregation_matches_the_reference_row_for_row_on_adversarial_nulls() {
    use certus::algebra::{AggExpr, AggFunc};
    let null = |i: u64| Value::Null(NullId(i));
    let int = Value::Int;
    let with_v = |groups: Vec<Value>| {
        groups.into_iter().enumerate().map(|(i, g)| vec![g, int(i as i64)]).collect::<Vec<_>>()
    };
    // (what is adversarial, rows of t(g, v), group key, groups expected)
    type Rows = Vec<Vec<Value>>;
    let cases: Vec<(&str, Rows, &[&str], usize)> = vec![
        (
            "one marked null repeated across rows",
            with_v(vec![null(1), int(2), null(1), null(2), int(2), null(1)]),
            &["g"],
            3,
        ),
        (
            "all-null group column",
            with_v(vec![null(3), null(1), null(3), null(2), null(1)]),
            &["g"],
            3,
        ),
        (
            "mixed-variant group column",
            with_v(vec![
                int(1),
                Value::str("1"),
                Value::Float(1.0),
                null(1),
                Value::str("1"),
                int(1),
            ]),
            &["g"],
            4,
        ),
        (
            "SUM over an all-null group between two summable ones",
            vec![
                vec![int(1), int(10)],
                vec![int(2), null(4)],
                vec![int(3), int(30)],
                vec![int(2), null(5)],
                vec![int(1), int(11)],
            ],
            &["g"],
            3,
        ),
        ("both columns as the key", with_v(vec![null(1), null(1), int(1)]), &["g", "v"], 3),
        ("empty group key", with_v(vec![int(1), null(1), int(1)]), &[], 1),
        ("empty group key over an empty input", Vec::new(), &[], 1),
        ("grouped over an empty input", Vec::new(), &["g"], 0),
    ];
    for (name, rows, group_by, groups) in cases {
        let mut db = Database::new();
        db.insert_relation("t", rel(&["g", "v"], rows));
        let q = RaExpr::relation("t").aggregate(
            group_by,
            vec![
                AggExpr::count_star("n"),
                AggExpr::new(AggFunc::Count, "v", "nv"),
                AggExpr::new(AggFunc::Sum, "v", "sv"),
            ],
        );
        for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
            let reference = eval(&q, &db, semantics).unwrap();
            for (threads, vectorized) in [(1, true), (1, false), (4, true), (4, false)] {
                let config = EngineConfig::with_threads(threads)
                    .with_parallel_floor(0)
                    .with_vectorized(vectorized);
                let out = Engine::configured(&db, semantics, config).execute(&q).unwrap();
                let context = format!("{name}, {semantics:?}, {threads} threads, {vectorized}");
                assert_eq!((out.len(), reference.len()), (groups, groups), "{context}");
                for (row, expected) in out.iter().zip(reference.iter()) {
                    let (key, aggs) = row.values().split_at(group_by.len());
                    let (expected_key, expected_aggs) = expected.values().split_at(group_by.len());
                    assert_eq!(key, expected_key, "{context}");
                    for (a, e) in aggs.iter().zip(expected_aggs) {
                        assert!(a == e || (a.is_null() && e.is_null()), "{context}: {a} vs {e}");
                    }
                }
            }
        }
    }
}

/// Three-column tables `r(a, b, x)` / `s(c, d, y)` for the null-aware hash
/// matrix: key columns `a`/`c` and `b`/`d` with nulls *clustered* on them
/// (four in ten values, drawn from four marked nulls so the same `⊥ᵢ` recurs
/// within and across the sides), payload columns `x`/`y` for the residual.
/// `shape` picks the degenerate instances: an all-null key column on either
/// side, an empty side.
fn null_keyed_db(rng: &mut StdRng, shape: usize) -> Database {
    let value = |rng: &mut StdRng, null_share: f64| {
        if rng.gen_bool(null_share) {
            Value::Null(NullId(rng.gen_range(1..5u64)))
        } else {
            Value::Int(rng.gen_range(0..4i64))
        }
    };
    let rows = |rng: &mut StdRng, len: usize, all_null_key: bool| {
        (0..len)
            .map(|_| {
                let first = if all_null_key { value(rng, 1.0) } else { value(rng, 0.4) };
                vec![first, value(rng, 0.4), value(rng, 0.15)]
            })
            .collect::<Vec<_>>()
    };
    let (r_len, s_len) = match shape {
        2 => (0, 6),
        3 => (6, 0),
        _ => (rng.gen_range(1..10usize), rng.gen_range(1..10usize)),
    };
    let mut db = Database::new();
    let r_rows = rows(rng, r_len, shape == 0);
    let s_rows = rows(rng, s_len, shape == 1);
    db.insert_relation("r", rel(&["a", "b", "x"], r_rows));
    db.insert_relation("s", rel(&["c", "d", "y"], s_rows));
    db
}

/// `l = r`, in a disjunction with the `IS NULL` tests `null_ok` asks for.
fn null_aware_key(l: &str, r: &str, null_ok: NullOk) -> Condition {
    let mut cond = eq(l, r);
    if null_ok.left {
        cond = cond.or(is_null(l));
    }
    if null_ok.right {
        cond = cond.or(is_null(r));
    }
    cond
}

/// The same physical node with its algorithm replaced by the nested loop
/// (a build-side exchange left under it is inert there).
fn as_nested_loop(plan: PhysicalExpr) -> PhysicalExpr {
    match plan {
        PhysicalExpr::Join { left, right, condition, .. } => {
            PhysicalExpr::Join { left, right, condition, algo: JoinAlgo::NestedLoop }
        }
        PhysicalExpr::Semi { left, right, condition, anti, left_schema, .. } => {
            PhysicalExpr::Semi {
                left,
                right,
                condition,
                algo: SemiAlgo::NestedLoop,
                anti,
                left_schema,
            }
        }
        other => panic!("expected a join-like root, got {other:?}"),
    }
}

/// Strong equivalence, the paper's way: a hash {join, semijoin, anti-join}
/// over null-aware keys returns **the relation the nested loop over the same
/// condition returns — same rows, same order** — in every execution
/// configuration, and both agree with the reference evaluator. One- and
/// two-column keys × every combination of which side's `NULL` satisfies
/// which key × residual or not × SQL and naive semantics × threads {1, 4} ×
/// vectorized on/off, over random databases with nulls clustered on the
/// keys, all-null key columns and empty sides.
#[test]
fn null_aware_hash_operators_return_the_nested_loop_relation() {
    let flags = [(false, false), (true, false), (false, true), (true, true)]
        .map(|(left, right)| NullOk { left, right });
    let mut key_sets: Vec<Vec<NullOk>> = flags.iter().map(|&f| vec![f]).collect();
    key_sets.extend(flags.iter().flat_map(|&f| flags.iter().map(move |&g| vec![f, g])));
    let residual = neq("x", "y").or(is_null("y"));
    let mut rng = StdRng::seed_from_u64(0x4A11);
    for case in 0..14 {
        let db = null_keyed_db(&mut rng, case);
        for null_ok in &key_sets {
            for with_residual in [false, true] {
                let mut cond = null_aware_key("a", "c", null_ok[0]);
                if let Some(&second) = null_ok.get(1) {
                    // Written right-side column first: the extractor must
                    // orient the pair (and its flags) by side, not by order.
                    let swapped = NullOk { left: second.right, right: second.left };
                    cond = cond.and(null_aware_key("d", "b", swapped));
                }
                if with_residual {
                    cond = cond.and(residual.clone());
                }
                let (r, s) = (RaExpr::relation("r"), RaExpr::relation("s"));
                for q in [
                    r.clone().join(s.clone(), cond.clone()),
                    r.clone().semi_join(s.clone(), cond.clone()),
                    r.anti_join(s, cond.clone()),
                ] {
                    for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
                        check_hash_against_nested_loop(&db, &q, null_ok, semantics, case);
                    }
                }
            }
        }
    }
}

fn check_hash_against_nested_loop(
    db: &Database,
    q: &RaExpr,
    null_ok: &[NullOk],
    semantics: NullSemantics,
    case: usize,
) {
    let context = format!("case {case}, query {q}, semantics {semantics:?}");
    let serial = Engine::configured(db, semantics, EngineConfig::serial().with_vectorized(false));
    let nested = as_nested_loop(serial.plan(q).unwrap());
    let expected = serial.execute_physical(&nested).unwrap();
    let reference = eval(q, db, semantics).unwrap();
    assert_eq!(
        expected.clone().sorted().tuples(),
        reference.sorted().tuples(),
        "nested loop vs reference: {context}"
    );
    for threads in [1usize, 4] {
        for vectorized in [true, false] {
            let config = EngineConfig::with_threads(threads)
                .with_parallel_floor(0)
                .with_vectorized(vectorized);
            let engine = Engine::configured(db, semantics, config);
            let plan = engine.plan(q).unwrap();
            match &plan {
                PhysicalExpr::Join { algo: JoinAlgo::Hash { null_ok: planned, .. }, .. }
                | PhysicalExpr::Semi { algo: SemiAlgo::Hash { null_ok: planned, .. }, .. } => {
                    assert_eq!(planned.as_slice(), null_ok, "{context}")
                }
                other => panic!("expected a hash operator, got {other:?}: {context}"),
            }
            let hashed = engine.execute_physical(&plan).unwrap();
            // Unsorted: same rows in the same order.
            assert_eq!(
                hashed.tuples(),
                expected.tuples(),
                "hash vs nested loop: {threads} threads, vectorized {vectorized}, {context}"
            );
        }
    }
}

/// A filter → join → semijoin chain over `r`, `s` and `s` again, aliased
/// `r{p}`, `s{p}` and `t{p}`: a null-aware hash join under a hash semijoin
/// whose residual reads the join's left source. Its six columns —
/// `r{p}.a, r{p}.b, r{p}.x, s{p}.c, s{p}.d, s{p}.y` — come from two sources,
/// each through a selection of its row ids.
fn id_chain(p: &str) -> RaExpr {
    let (r, s, t) = (format!("r{p}"), format!("s{p}"), format!("t{p}"));
    let c = |rel: &str, col: &str| format!("{rel}.{col}");
    RaExpr::relation_as("r", r.as_str())
        .select(neq(c(&r, "a"), c(&r, "b")).or(is_null(c(&r, "x"))))
        .join(
            RaExpr::relation_as("s", s.as_str()),
            eq(c(&r, "a"), c(&s, "c")).or(is_null(c(&r, "a"))),
        )
        .semi_join(
            RaExpr::relation_as("s", t.as_str()),
            eq(c(&s, "d"), c(&t, "c")).and(neq(c(&r, "b"), c(&t, "d")).or(is_null(c(&t, "d")))),
        )
}

/// Join-like nodes of a physical plan, by algorithm.
fn join_algos(plan: &PhysicalExpr, out: &mut Vec<String>) {
    match plan {
        PhysicalExpr::Join { algo, .. } => out.push(format!("join {algo:?}")),
        PhysicalExpr::Semi { algo, .. } => out.push(format!("semi {algo:?}")),
        _ => {}
    }
    for child in plan.children() {
        join_algos(child, out);
    }
}

/// Operators hand each other row-id sets and build rows only where a
/// consumer needs whole rows. Every such boundary — the root, a projection,
/// δ, a union arm, ∩, −, ⋉⇑, γ, and a rename and a filter in between —
/// and both sides of a nested-loop join and semijoin and a decorrelated
/// semijoin's inner side are fed id chains ([`id_chain`]), over instances
/// with nulls clustered on the keys (the same `⊥ᵢ` recurring within and
/// across the relations), all-null key columns and empty sides. Each plan,
/// as written and after the rewrite passes, agrees with the reference
/// evaluator under both semantics, and returns the same relation, order
/// included, at threads {1, 4} × vectorized on/off with every exchange
/// fanning out.
#[test]
fn id_chains_match_the_reference_at_every_materialisation_boundary() {
    use certus::algebra::{AggExpr, AggFunc};
    let (x, y) = (|| id_chain("1"), || id_chain("2"));
    // The left side of the decorrelated semijoins, renamed: a name like
    // `s2.y` also resolves by its base name against `s1.y`, so over `x()` the
    // planner would take a predicate over `y()` alone for a correlated one.
    let renamed = || x().rename(&["a1", "b1", "x1", "c1", "d1", "y1"]);
    let shapes = |db: &Database| {
        vec![
            x(),
            x().project(&["s1.d", "r1.b"]),
            x().distinct(),
            x().project(&["r1.a"]).union(y().project(&["s2.d"])),
            x().project(&["r1.b"]).intersect(y().project(&["s2.c"])),
            x().project(&["r1.a", "s1.y"]).difference(y().project(&["r2.b", "s2.d"])),
            x().unify_semi_join(y()),
            x().project(&["r1.a", "s1.d"]).unify_anti_join(y().project(&["s2.c", "r2.b"])),
            x().project(&["r1.a", "s1.d"]).divide(y().project(&["s2.d"]), db).unwrap(),
            x().aggregate(
                &["s1.d"],
                vec![AggExpr::count_star("n"), AggExpr::new(AggFunc::Count, "r1.x", "nx")],
            ),
            x().aggregate(&[], vec![AggExpr::count_star("n")]),
            renamed().project(&["y1", "a1"]),
            renamed().join(RaExpr::relation("s"), eq("d1", "c").or(is_null("c"))),
            x().select(neq("r1.x", "s1.y").or(is_null("s1.c"))),
            x().join(y(), eq("s1.d", "r2.a")),
            x().join(y(), neq("r1.b", "r2.b").or(is_null("s2.y"))),
            x().semi_join(y(), neq("r1.x", "s2.y").or(is_null("r2.a"))),
            x().anti_join(y(), neq("s1.c", "r2.x").or(is_null("r1.b"))),
            renamed().semi_join(y(), is_null("s2.y")),
            renamed().anti_join(y(), is_null("r2.x")),
        ]
    };
    let passes = PassManager::standard();
    let mut rng = StdRng::seed_from_u64(0xB0DA);
    let mut algos = Vec::new();
    for case in 0..12 {
        let db = null_keyed_db(&mut rng, case);
        for written in &shapes(&db) {
            let piped = passes.run(written, &db).unwrap();
            for q in [written, &piped] {
                algos.extend(same_relation_in_every_configuration(&db, q, case));
            }
        }
    }
    for algo in
        ["join NestedLoop", "semi NestedLoop", "semi Decorrelated", "join Hash", "semi Hash"]
    {
        assert!(algos.iter().any(|a| a.starts_with(algo)), "no {algo} node was exercised");
    }
}

/// `q` over `db` agrees with the reference evaluator under both semantics
/// and returns the same relation, order included, at threads {1, 4} ×
/// vectorized on/off with every exchange fanning out. Returns the join-like
/// nodes of the plans run ([`join_algos`]).
fn same_relation_in_every_configuration(db: &Database, q: &RaExpr, case: usize) -> Vec<String> {
    let mut algos = Vec::new();
    for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
        let reference = eval(q, db, semantics).unwrap().distinct().sorted();
        let mut first = None;
        for (threads, vectorized) in [(1, true), (1, false), (4, true), (4, false)] {
            let config = EngineConfig::with_threads(threads)
                .with_parallel_floor(0)
                .with_vectorized(vectorized);
            let engine = Engine::configured(db, semantics, config);
            let plan = engine.plan(q).unwrap();
            join_algos(&plan, &mut algos);
            let out = engine.execute_physical(&plan).unwrap();
            let context = format!(
                "case {case}, query {q}, {semantics:?}, {threads} threads, vectorized {vectorized}"
            );
            let got = out.clone().distinct().sorted();
            assert_eq!(got.tuples(), reference.tuples(), "{context}");
            let serial = first.get_or_insert_with(|| out.clone());
            assert_eq!(&out, serial, "order differs from serial: {context}");
        }
    }
    algos
}

/// Joins whose row ids feed every kind of consumer: a projection (under
/// another join, over a nested-loop join, over an aliased self-join), a
/// semijoin or anti-join whose residual reads a column nothing else needs,
/// δ, a union arm, −, the plan root, a filter, a deduplicating pipeline, γ
/// reading none or some of the join's columns, a rename, and the inner side
/// of an uncorrelated anti-join. Each agrees with the reference evaluator and
/// returns the same relation in every configuration.
#[test]
fn id_joins_under_every_consumer_return_the_reference_relation() {
    use certus::algebra::{AggExpr, AggFunc};
    let (r, s) = (|| RaExpr::relation("r"), || RaExpr::relation("s"));
    let count = |alias: &str| vec![AggExpr::count_star(alias)];
    let shapes = vec![
        r().join(s(), eq("a", "c"))
            .project(&["b", "d"])
            .join(RaExpr::relation_as("s", "t"), eq("b", "t.c")),
        r().join(s(), eq("a", "c").or(is_null("d"))).project(&["d"]),
        RaExpr::relation_as("r", "l1")
            .join(RaExpr::relation_as("r", "l2"), eq("l1.a", "l2.b"))
            .project(&["l2.a", "l1.b"]),
        r().join(s(), eq("a", "c"))
            .semi_join(RaExpr::relation_as("s", "t"), eq("d", "t.c").and(neq("b", "t.d")))
            .project(&["a"]),
        r().join(s(), eq("a", "c"))
            .anti_join(RaExpr::relation_as("s", "t"), neq("b", "t.d"))
            .project(&["c"]),
        r().join(s(), eq("a", "c"))
            .anti_join(
                RaExpr::relation_as("s", "t"),
                eq("d", "t.c").or(is_null("d")).and(neq("b", "t.d").or(is_null("t.d"))),
            )
            .project(&["a"]),
        r().join(s(), eq("a", "c").or(is_null("a")).and(neq("b", "d"))).project(&["c"]),
        r().join(s(), eq("a", "c")).distinct(),
        r().join(s(), eq("a", "c")).union(r().join(s(), eq("b", "d"))),
        r().join(s(), eq("a", "c")).difference(r().join(s(), neq("b", "d"))),
        r().join(s(), eq("a", "c")),
        r().join(s(), eq("a", "c")).select(neq("b", "d")),
        r().join(s(), eq("a", "c"))
            .select(neq("b", "d").or(is_null("d")))
            .distinct()
            .aggregate(&["a"], count("n")),
        r().join(s(), eq("a", "c")).aggregate(&[], count("n")),
        r().join(s(), neq("a", "c")).aggregate(&[], count("n")),
        r().join(s(), eq("a", "c"))
            .aggregate(&["d"], vec![AggExpr::new(AggFunc::Count, "b", "nb")]),
        r().join(s(), eq("a", "c"))
            .select(neq("b", "d"))
            .semi_join(RaExpr::relation_as("r", "t"), eq("a", "t.a"))
            .project(&["a"]),
        r().join(s(), eq("a", "c"))
            .rename(&["w", "x", "y", "z"])
            .select(eq_const("w", 1i64).or(is_null("z")))
            .anti_join(RaExpr::relation_as("s", "t"), eq("x", "t.d"))
            .aggregate(&["w"], count("n")),
        r().join(s(), eq("a", "c"))
            .anti_join(
                RaExpr::relation_as("r", "t").join(RaExpr::relation_as("s", "u"), eq("t.a", "u.c")),
                is_null("u.d"),
            )
            .project(&["b"]),
    ];
    let mut rng = StdRng::seed_from_u64(0x11FE);
    let mut algos = Vec::new();
    for case in 0..40 {
        let db = random_db(&mut rng);
        for q in &shapes {
            algos.extend(same_relation_in_every_configuration(&db, q, case));
        }
    }
    for algo in ["join NestedLoop", "join Hash", "semi NestedLoop", "semi Hash"] {
        assert!(algos.iter().any(|a| a.starts_with(algo)), "no {algo} node was exercised");
    }
}

/// Null-aware hash joins over keys with nulls clustered on them, whose ids
/// feed a projection reading none of the keys, an anti-join whose key and
/// residual read both sides, and γ over a semijoin. Every join is planned as
/// a hash join; each plan agrees with the reference evaluator and returns the
/// same relation in every configuration.
#[test]
fn null_aware_id_joins_agree_on_null_clustered_keys() {
    use certus::algebra::AggExpr;
    let (r, s) = (|| RaExpr::relation("r"), || RaExpr::relation("s"));
    let null_aware = |l: &str, r: &str| eq(l, r).or(is_null(l)).or(is_null(r));
    let shapes = [
        r().join(s(), null_aware("a", "c").and(neq("x", "y").or(is_null("y")))).project(&["d"]),
        r().join(s(), null_aware("a", "c").and(null_aware("d", "b"))).project(&["x", "y"]),
        r().join(s(), eq("a", "c").or(is_null("a")))
            .anti_join(
                RaExpr::relation_as("s", "t"),
                null_aware("b", "t.c").and(neq("y", "t.y").or(is_null("t.y"))),
            )
            .project(&["x"]),
        r().join(s(), null_aware("a", "c"))
            .semi_join(RaExpr::relation_as("r", "t"), eq("d", "t.b").or(is_null("t.b")))
            .aggregate(&["y"], vec![AggExpr::count_star("n")]),
    ];
    let mut rng = StdRng::seed_from_u64(0x4A11);
    for case in 0..14 {
        let db = null_keyed_db(&mut rng, case);
        for q in &shapes {
            let algos = same_relation_in_every_configuration(&db, q, case);
            let joins: Vec<_> = algos.iter().filter(|a| a.starts_with("join ")).collect();
            assert!(!joins.is_empty(), "case {case}, query {q}");
            assert!(
                joins.iter().all(|a| a.starts_with("join Hash")),
                "case {case}, query {q}: {algos:?}"
            );
        }
    }
}

/// Base relations keep the columns operators read from them, and inserting
/// into a relation must drop them. `Q⁺` of a string filter under an
/// anti-join reads `r.s` (the filter) and `t.c` (a null-aware hash key)
/// from the base relations' caches. After each round of inserts — the
/// session's database and relations are not shared, so they are mutated in
/// place, caches and all — the re-prepared query must still agree with the
/// reference evaluator, and its answer must have moved. Round one adds an
/// answer, a wild probe row (`a` null) and a row that matches an answer
/// away; round two adds a wild build row (`c` null), which matches every
/// probe row. Both semantics × vectorized on/off × threads {1, 4}.
#[test]
fn inserts_reach_queries_that_read_cached_base_columns() {
    use certus::core::{translate_plus, ConditionDialect};
    use certus::{Certainty, Session};
    let str_row = |a: Value, s: &str| vec![a, Value::str(s)];
    let q = RaExpr::relation("r")
        .select(eq_const("s", "x"))
        .anti_join(RaExpr::relation("t"), eq("a", "c"))
        .project(&["a"]);
    let null = |i: u64| Value::Null(NullId(i));
    let rounds = [
        vec![
            ("r", str_row(Value::Int(5), "x")),
            ("r", str_row(null(1), "x")),
            ("t", str_row(Value::Int(1), "w")),
        ],
        vec![("t", str_row(null(2), "v")), ("r", str_row(Value::Int(6), "x"))],
    ];
    for (semantics, dialect) in [
        (NullSemantics::Sql, ConditionDialect::Sql),
        (NullSemantics::Naive, ConditionDialect::Theoretical),
    ] {
        let plus = translate_plus(&q, dialect).unwrap();
        for threads in [1usize, 4] {
            for vectorized in [true, false] {
                let mut db = Database::new();
                let r_rows = [(1, "x"), (2, "y"), (3, "x"), (4, "x")];
                db.insert_relation(
                    "r",
                    rel(&["a", "s"], r_rows.map(|(a, s)| str_row(Value::Int(a), s)).to_vec()),
                );
                let t_rows = [(2, "u"), (3, "w")];
                db.insert_relation(
                    "t",
                    rel(&["c", "u"], t_rows.map(|(c, u)| str_row(Value::Int(c), u)).to_vec()),
                );
                let config = EngineConfig::with_threads(threads)
                    .with_parallel_floor(0)
                    .with_vectorized(vectorized);
                let mut session = Session::builder(db).semantics(semantics).config(config).build();
                let context = format!("{semantics:?}, {threads} threads, vectorized {vectorized}");
                let answer = |session: &Session, round: usize| {
                    let prepared = session.prepare(&q, Certainty::CertainPlus).unwrap();
                    let got = session.execute_prepared(&prepared).unwrap();
                    let got = got.relation().distinct().sorted();
                    let want = eval(&plus, session.database(), semantics).unwrap();
                    assert_eq!(
                        got.tuples(),
                        want.distinct().sorted().tuples(),
                        "round {round}: {context}"
                    );
                    got
                };
                let mut previous = answer(&session, 0);
                for (round, inserts) in rounds.iter().enumerate() {
                    for (table, row) in inserts {
                        let db = session.database_mut();
                        db.relation_mut(table).unwrap().insert_values(row.clone()).unwrap();
                    }
                    let now = answer(&session, round + 1);
                    assert_ne!(
                        now,
                        previous,
                        "round {} left the answer alone: {context}",
                        round + 1
                    );
                    previous = now;
                }
            }
        }
    }
}

/// Query shapes that exercise every rewrite pass: selections above joins and
/// products (pushdown), nested/aliased projections (collapse), constant
/// comparisons (fold), OR'd anti-join and join conditions (or-split) and
/// `IS NULL` atoms (null-prune, given the nullable test schema: a no-op that
/// must stay a no-op).
fn planner_queries(db: &Database) -> Vec<RaExpr> {
    use certus::algebra::ProjCol;
    let mut queries = engine_queries(db);
    queries.extend(vec![
        RaExpr::relation("r")
            .product(RaExpr::relation("s"))
            .select(eq("a", "c").and(eq_const("b", 2i64))),
        RaExpr::relation("r")
            .join(RaExpr::relation("s"), eq("a", "c"))
            .select(neq("b", "d").or(is_null("d"))),
        RaExpr::relation("r")
            .project_cols(vec![ProjCol::aliased("a", "x"), ProjCol::named("b")])
            .project_cols(vec![ProjCol::aliased("x", "y")])
            .select(eq_const("y", 1i64)),
        RaExpr::relation("r").project(&["a", "b"]).distinct().distinct(),
        RaExpr::relation("r").select(eq_const("a", 3i64).and(certus::Condition::True)),
        RaExpr::relation("r")
            .anti_join(RaExpr::relation("s"), eq("a", "c").and(neq("b", "d").or(is_null("d")))),
        RaExpr::relation("r")
            .select(is_null("a").or(eq("a", "b")))
            .anti_join(RaExpr::relation("s"), eq("a", "c").or(is_null("c"))),
        RaExpr::relation("r").unify_anti_join(RaExpr::relation("s")),
        RaExpr::relation("r")
            .project(&["a"])
            .union(RaExpr::relation("s").project(&["c"]).rename(&["a"]))
            .select(eq_const("a", 1i64)),
        // Union whose right branch has the selected column at a different
        // position: pushdown must refuse (union alignment is positional).
        RaExpr::relation("r")
            .union(RaExpr::relation("s").rename(&["b", "a"]))
            .select(eq_const("a", 1i64)),
    ]);
    queries.extend(semijoin_queries());
    queries
}

/// Joins that only test existence (join-to-semijoin): under a projection of
/// left columns, on the right of an anti-join, a chain of three with
/// null-aware keys (Q⁺4's shape), an aliased self-join — and joins that must
/// stay: under `COUNT(*)`, with a right column read above, and with one read
/// through a semijoin whose right side has a column of the same base name.
fn semijoin_queries() -> Vec<RaExpr> {
    use certus::algebra::AggExpr;
    let null_aware = |x: &str, y: &str| eq(x, y).or(is_null(x));
    let (r, s) = (|| RaExpr::relation("r"), || RaExpr::relation("s"));
    let (t, u, v, w) = (
        RaExpr::relation_as("r", "t"),
        RaExpr::relation_as("s", "u"),
        RaExpr::relation_as("r", "v"),
        RaExpr::relation_as("s", "w"),
    );
    vec![
        r().join(s(), eq("a", "c")).project(&["a", "b"]),
        r().join(s(), null_aware("a", "c")).select(neq("a", "b")).distinct().project(&["b"]),
        r().anti_join(t.clone().join(s(), null_aware("t.b", "d")), eq("a", "t.a")),
        r().anti_join(
            t.clone()
                .join(s(), null_aware("t.a", "c"))
                .join(u.clone(), null_aware("t.b", "u.d"))
                .join(v, null_aware("u.c", "v.a")),
            eq("b", "t.b"),
        ),
        t.clone().join(RaExpr::relation_as("r", "w"), eq("t.a", "w.a")).project(&["t.b"]),
        r().join(s(), eq("a", "c")).aggregate(&["a"], vec![AggExpr::count_star("n")]),
        r().join(s(), eq("a", "c")).select(neq("b", "d")).project(&["a"]),
        r().join(u.clone(), eq("a", "u.c")).semi_join(w.clone(), eq("b", "w.d")).project(&["d"]),
        r().join(u.clone(), eq("a", "u.c"))
            .anti_join(w, null_aware("b", "w.d"))
            .select(neq("d", "a"))
            .project(&["a"]),
        r().join(u, eq("a", "u.c")).anti_join(s(), eq("b", "d")).project(&["c"]),
    ]
}

/// Every pass individually, and the full pipeline, must be result-equivalent
/// to the unplanned reference evaluation — under both null semantics, so the
/// rewrites are *strongly* semantics-preserving — and the pipeline run over
/// its own output must change nothing: that is what lets it run once. Pass
/// by pass the comparison is of bags (a join turned semijoin where duplicates
/// show would fail it); the pipeline's is of sets.
#[test]
fn passes_and_pipeline_are_result_equivalent_to_reference() {
    let manager = PassManager::standard();
    let mut rng = StdRng::seed_from_u64(0x9A55);
    for case in 0..24 {
        let db = random_db(&mut rng);
        for q in planner_queries(&db) {
            for (name, pass) in PASSES {
                let rewritten = pass(&q, &db).unwrap();
                for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
                    let a = eval(&q, &db, semantics).unwrap().sorted();
                    let b = eval(&rewritten, &db, semantics).unwrap().sorted();
                    assert_eq!(
                        a.tuples(),
                        b.tuples(),
                        "case {case}, pass {name}, query {q} → {rewritten}, {semantics:?}"
                    );
                }
            }
            let piped = manager.run(&q, &db).unwrap();
            assert_eq!(manager.run(&piped, &db).unwrap(), piped, "case {case}, query {q}");
            for semantics in [NullSemantics::Sql, NullSemantics::Naive] {
                let a = eval(&q, &db, semantics).unwrap().distinct().sorted();
                let b = eval(&piped, &db, semantics).unwrap().distinct().sorted();
                assert_eq!(
                    a.tuples(),
                    b.tuples(),
                    "case {case}, pipeline, query {q} → {piped}, {semantics:?}"
                );
            }
        }
    }
}

/// Passes on and passes off must produce identical results through the
/// physical engine as well (plans of the raw query vs. plans of the
/// rewritten query made with statistics at hand).
#[test]
fn planner_on_vs_off_execute_identically() {
    let mut rng = StdRng::seed_from_u64(0x0FF0);
    let passes = PassManager::standard();
    for case in 0..16 {
        let db = random_db(&mut rng);
        let engine = Engine::configured(&db, NullSemantics::Sql, EngineConfig::default());
        let stats = certus::StatisticsCatalog::analyze(&db);
        for q in planner_queries(&db) {
            let off = engine.execute(&q).unwrap().distinct().sorted();
            let optimized = passes.run(&q, &db).unwrap();
            let on = engine.execute(&optimized).unwrap().distinct().sorted();
            assert_eq!(off.tuples(), on.tuples(), "case {case}, query {q}");
            let physical = PhysicalPlanner::new(&db, &stats).plan(&optimized).unwrap();
            let cost_based = engine.execute_physical(&physical).unwrap().distinct().sorted();
            assert_eq!(off.tuples(), cost_based.tuples(), "case {case}, physical, query {q}");
        }
    }
}

#[test]
fn engine_agrees_on_translated_tpch_queries() {
    use certus::tpch::{query_by_number, Workload};
    use certus::CertainRewriter;
    let workload = Workload::new(0.0002, 0.05, 77);
    let db = workload.incomplete_instance();
    let params = workload.params(&db, 0);
    let rewriter = CertainRewriter::new();
    let passes = PassManager::standard();
    for q in 1..=4usize {
        let expr = query_by_number(q, &params).expect("query exists");
        let plus = rewriter.rewrite_plus(&expr, &db).expect("translates");
        // Q, Q⁺ and Q★ after the passes: a second run changes none of them.
        let star = rewriter.rewrite_star(&expr, &db).expect("translates");
        for piped in [&passes.run(&expr, &db).expect("passes run"), &plus, &star] {
            assert_eq!(&passes.run(piped, &db).expect("passes run"), piped, "Q{q}: {piped}");
        }
        for query in [&expr, &plus] {
            let engine_out = Engine::configured(&db, NullSemantics::Sql, EngineConfig::default())
                .execute(query)
                .unwrap()
                .distinct()
                .sorted();
            let reference_out = eval(query, &db, NullSemantics::Sql).unwrap().distinct().sorted();
            assert_eq!(engine_out.tuples(), reference_out.tuples(), "Q{q}");
        }
    }
}
