//! The improved, implementation-friendly translation `Q ↦ (Q⁺, Q★)` of
//! Figure 3 of the paper.
//!
//! `Q⁺` has *correctness guarantees* for `Q` (it returns only certain answers
//! with nulls, Theorem 1), and `Q★` *represents potential answers* to `Q`
//! (Definition 3). The two translations are mutually recursive: the rule for
//! difference uses the other translation of the subtracted query.
//!
//! Beyond the core operators of Figure 3, the derived operators produced by
//! the SQL front-end are translated directly — this is sanctioned by
//! Corollary 1, because each direct rule is equivalent to (or stronger than,
//! on the `Q⁺` side / weaker than, on the `Q★` side) the rule obtained by
//! desugaring and applying the literal Figure 3 rules:
//!
//! * `Join(l, r, θ)⁺ = Join(l⁺, r⁺, θ*)` — a theta-join is `σ_θ(l × r)`.
//! * `SemiJoin(l, r, θ)⁺ = SemiJoin(l⁺, r⁺, θ*)` — a semijoin is
//!   `π_l(σ_θ(l × r))`, and all three rules commute with the translation.
//! * `AntiJoin(l, r, θ)⁺ = AntiJoin(l⁺, r★, θ**)` — this is the workhorse
//!   rule behind the paper's rewritten `NOT EXISTS` subqueries. It follows
//!   from `(l − X)⁺ = l⁺ ⋉̸⇑ X★` with `X = SemiJoin(l, r, θ)`: a tuple of
//!   `l⁺` survives iff no potential match exists in `r★` under the weakened
//!   condition `θ**`, which is exactly what `AntiJoin(l⁺, r★, θ**)` computes
//!   without ever materialising `X★`. (The unification check against the
//!   preserved side is subsumed because the preserved tuple *is* the tuple
//!   being tested.)
//! * `AntiJoin(l, r, θ)★ = Difference(l★, SemiJoin(l⁺, r⁺, θ*))` — rule (4.4)
//!   with `(l ⋉_θ r)⁺` as the subtracted query.
//!
//! Division needs no rule: [`RaExpr::divide`] builds it from −, π and ×.

use crate::algebra::expr::RaExpr;
use crate::core::dialect::ConditionDialect;
use crate::core::theta::{theta_star, theta_star_star};
use crate::{Error, Result};

/// Translate `Q` into `Q⁺`, the query with correctness guarantees
/// (Figure 3, rules (3.1)–(3.7) plus derived-operator rules).
pub fn translate_plus(expr: &RaExpr, dialect: ConditionDialect) -> Result<RaExpr> {
    match expr {
        // (3.1) R⁺ = R  — and literal relations translate to themselves.
        RaExpr::Relation { .. } | RaExpr::Values { .. } => Ok(expr.clone()),
        // (3.2) (Q1 ∪ Q2)⁺ = Q1⁺ ∪ Q2⁺
        RaExpr::Union { left, right } => {
            Ok(translate_plus(left, dialect)?.union(translate_plus(right, dialect)?))
        }
        // (3.3) (Q1 ∩ Q2)⁺ = Q1⁺ ∩ Q2⁺
        RaExpr::Intersect { left, right } => {
            Ok(translate_plus(left, dialect)?.intersect(translate_plus(right, dialect)?))
        }
        // (3.4) (Q1 − Q2)⁺ = Q1⁺ ⋉̸⇑ Q2★
        RaExpr::Difference { left, right } => {
            Ok(translate_plus(left, dialect)?.unify_anti_join(translate_star(right, dialect)?))
        }
        // (3.5) (σ_θ Q)⁺ = σ_θ*(Q⁺)
        RaExpr::Select { input, condition } => {
            Ok(translate_plus(input, dialect)?.select(theta_star(condition, dialect)))
        }
        // (3.6) (Q1 × Q2)⁺ = Q1⁺ × Q2⁺
        RaExpr::Product { left, right } => {
            Ok(translate_plus(left, dialect)?.product(translate_plus(right, dialect)?))
        }
        // (3.7) (π_α Q)⁺ = π_α(Q⁺)
        RaExpr::Project { input, columns } => {
            Ok(translate_plus(input, dialect)?.project_cols(columns.clone()))
        }
        // Derived operators (Corollary 1).
        RaExpr::Join { left, right, condition } => Ok(translate_plus(left, dialect)?
            .join(translate_plus(right, dialect)?, theta_star(condition, dialect))),
        RaExpr::SemiJoin { left, right, condition } => Ok(translate_plus(left, dialect)?
            .semi_join(translate_plus(right, dialect)?, theta_star(condition, dialect))),
        RaExpr::AntiJoin { left, right, condition } => Ok(translate_plus(left, dialect)?
            .anti_join(translate_star(right, dialect)?, theta_star_star(condition, dialect))),
        RaExpr::Rename { input, columns } => Ok(RaExpr::Rename {
            input: Box::new(translate_plus(input, dialect)?),
            columns: columns.clone(),
        }),
        RaExpr::Distinct { input } => Ok(translate_plus(input, dialect)?.distinct()),
        RaExpr::UnifySemiJoin { .. } | RaExpr::UnifyAntiSemiJoin { .. } => Err(
            Error::OutsideFragment("unification semijoins may not appear in source queries".into()),
        ),
        // Aggregates are treated as black boxes *inside conditions* (scalar
        // subqueries); an aggregate in the main operator tree has no certain-
        // answer semantics yet (paper, Section 8).
        RaExpr::Aggregate { .. } => Err(Error::OutsideFragment(
            "aggregate operators are only supported as scalar subqueries inside conditions".into(),
        )),
    }
}

/// Translate `Q` into `Q★`, a query representing potential answers
/// (Figure 3, rules (4.1)–(4.7) plus derived-operator rules).
pub fn translate_star(expr: &RaExpr, dialect: ConditionDialect) -> Result<RaExpr> {
    match expr {
        // (4.1) R★ = R
        RaExpr::Relation { .. } | RaExpr::Values { .. } => Ok(expr.clone()),
        // (4.2) (Q1 ∪ Q2)★ = Q1★ ∪ Q2★
        RaExpr::Union { left, right } => {
            Ok(translate_star(left, dialect)?.union(translate_star(right, dialect)?))
        }
        // (4.3) (Q1 ∩ Q2)★ = Q1★ ⋉⇑ Q2★
        RaExpr::Intersect { left, right } => {
            Ok(translate_star(left, dialect)?.unify_semi_join(translate_star(right, dialect)?))
        }
        // (4.4) (Q1 − Q2)★ = Q1★ − Q2⁺
        RaExpr::Difference { left, right } => {
            Ok(translate_star(left, dialect)?.difference(translate_plus(right, dialect)?))
        }
        // (4.5) (σ_θ Q)★ = σ_θ**(Q★)
        RaExpr::Select { input, condition } => {
            Ok(translate_star(input, dialect)?.select(theta_star_star(condition, dialect)))
        }
        // (4.6) (Q1 × Q2)★ = Q1★ × Q2★
        RaExpr::Product { left, right } => {
            Ok(translate_star(left, dialect)?.product(translate_star(right, dialect)?))
        }
        // (4.7) (π_α Q)★ = π_α(Q★)
        RaExpr::Project { input, columns } => {
            Ok(translate_star(input, dialect)?.project_cols(columns.clone()))
        }
        // Derived operators.
        RaExpr::Join { left, right, condition } => Ok(translate_star(left, dialect)?
            .join(translate_star(right, dialect)?, theta_star_star(condition, dialect))),
        RaExpr::SemiJoin { left, right, condition } => Ok(translate_star(left, dialect)?
            .semi_join(translate_star(right, dialect)?, theta_star_star(condition, dialect))),
        RaExpr::AntiJoin { left, right, condition } => {
            // (l ▷_θ r)★ = l★ − (l ⋉_θ r)⁺
            let minus = translate_plus(left, dialect)?
                .semi_join(translate_plus(right, dialect)?, theta_star(condition, dialect));
            Ok(translate_star(left, dialect)?.difference(minus))
        }
        RaExpr::Rename { input, columns } => Ok(RaExpr::Rename {
            input: Box::new(translate_star(input, dialect)?),
            columns: columns.clone(),
        }),
        RaExpr::Distinct { input } => Ok(translate_star(input, dialect)?.distinct()),
        RaExpr::UnifySemiJoin { .. } | RaExpr::UnifyAntiSemiJoin { .. } => Err(
            Error::OutsideFragment("unification semijoins may not appear in source queries".into()),
        ),
        RaExpr::Aggregate { .. } => Err(Error::OutsideFragment(
            "aggregate operators are only supported as scalar subqueries inside conditions".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{eq, eq_const, neq, neq_const};
    use crate::algebra::eval::eval;
    use crate::algebra::schema_infer::Catalog;
    use crate::algebra::NullSemantics;
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::{Database, Tuple, Value};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn null(i: u64) -> Value {
        Value::Null(NullId(i))
    }

    /// The introduction's example: R = {1}, S = {NULL}. SQL returns {1} for
    /// R − S (a false positive); Q⁺ must return the empty set.
    #[test]
    fn intro_example_difference() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        db.insert_relation("s", rel(&["a"], vec![vec![null(1)]]));
        let q = RaExpr::relation("r").difference(RaExpr::relation("s"));
        let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
        let out = eval(&plus, &db, NullSemantics::Sql).unwrap();
        assert!(out.is_empty(), "Q+ returned a false positive: {out}");
        // Whereas plain SQL evaluation of the difference keeps the tuple.
        let sql = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(sql.len(), 1);
    }

    /// Same example phrased with NOT EXISTS (anti-join), as in the paper's SQL.
    #[test]
    fn intro_example_antijoin() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a"], vec![vec![Value::Int(1)]]));
        db.insert_relation("s", rel(&["b"], vec![vec![null(1)]]));
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "b"));
        let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
        assert!(eval(&plus, &db, NullSemantics::Sql).unwrap().is_empty());
        assert_eq!(eval(&q, &db, NullSemantics::Sql).unwrap().len(), 1);
    }

    /// On complete databases Q and Q⁺ coincide (third bullet of the paper's
    /// summary of \[22\], preserved by the improved translation).
    #[test]
    fn complete_database_unchanged_semantics() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![vec![Value::Int(1), Value::Int(1)], vec![Value::Int(2), Value::Int(3)]],
            ),
        );
        db.insert_relation("s", rel(&["c"], vec![vec![Value::Int(2)]]));
        let q = RaExpr::relation("r")
            .select(neq_const("b", 1i64))
            .anti_join(RaExpr::relation("s"), eq("a", "c"))
            .project(&["a"]);
        let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
        let a = eval(&q, &db, NullSemantics::Sql).unwrap().sorted();
        let b = eval(&plus, &db, NullSemantics::Sql).unwrap().sorted();
        assert_eq!(a.tuples(), b.tuples());
    }

    /// The paper's Section 6 example of incomparability: D1 with
    /// R = {(1,2),(2,⊥)}, S = {(1,2),(⊥,2)}, T = {(1,2)} and
    /// Q1 = R − (S ∩ T): the tuple (2,⊥) is in EvalSQL and is certain, but
    /// Q1⁺ returns the empty set.
    #[test]
    fn incomparability_example_d1() {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(2), null(1)]],
            ),
        );
        db.insert_relation(
            "s",
            rel(
                &["a", "b"],
                vec![vec![Value::Int(1), Value::Int(2)], vec![null(2), Value::Int(2)]],
            ),
        );
        db.insert_relation("t", rel(&["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]));
        let q = RaExpr::relation("r")
            .difference(RaExpr::relation("s").intersect(RaExpr::relation("t")));
        let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
        let out = eval(&plus, &db, NullSemantics::Sql).unwrap();
        assert!(out.is_empty(), "Q+ is allowed to miss the certain answer here");
        // SQL evaluation keeps (2,⊥) — which happens to be certain.
        let sql = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(sql.len(), 1);
    }

    /// The other direction of incomparability (D2): Q2 = σ_{A=B}(R) over
    /// R = {(⊥,⊥)} with the *same* marked null: Q2⁺ under the theoretical
    /// dialect + naive evaluation returns (⊥,⊥), while SQL evaluation of Q2
    /// returns nothing.
    #[test]
    fn incomparability_example_d2() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a", "b"], vec![vec![null(7), null(7)]]));
        let q = RaExpr::relation("r").select(eq("a", "b"));
        let plus = translate_plus(&q, ConditionDialect::Theoretical).unwrap();
        let out = eval(&plus, &db, NullSemantics::Naive).unwrap();
        assert_eq!(out.len(), 1);
        let sql = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert!(sql.is_empty());
    }

    #[test]
    fn antijoin_condition_is_weakened() {
        let q = RaExpr::relation("orders").anti_join(
            RaExpr::relation("lineitem"),
            eq("l_orderkey", "o_orderkey").and(neq_const("l_suppkey", 7i64)),
        );
        let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
        match plus {
            RaExpr::AntiJoin { condition, .. } => {
                let s = condition.to_string();
                assert!(s.contains("l_suppkey IS NULL"), "weakened condition: {s}");
                assert!(s.contains("l_orderkey IS NULL"), "weakened condition: {s}");
            }
            other => panic!("expected anti-join, got {other}"),
        }
    }

    #[test]
    fn semijoin_condition_is_strengthened_not_weakened() {
        let q = RaExpr::relation("orders")
            .semi_join(RaExpr::relation("lineitem"), eq("l_orderkey", "o_orderkey"));
        let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
        match plus {
            RaExpr::SemiJoin { condition, .. } => {
                assert!(!condition.to_string().contains("IS NULL"));
            }
            other => panic!("expected semi-join, got {other}"),
        }
    }

    #[test]
    fn unsupported_fragments_are_rejected() {
        let agg =
            RaExpr::relation("r").aggregate(&[], vec![crate::algebra::AggExpr::count_star("n")]);
        assert!(matches!(
            translate_plus(&agg, ConditionDialect::Sql),
            Err(Error::OutsideFragment(_))
        ));
        let usj = RaExpr::relation("r").unify_semi_join(RaExpr::relation("s"));
        assert!(translate_star(&usj, ConditionDialect::Sql).is_err());
    }

    /// Positive queries translate to themselves under the SQL dialect
    /// ("for positive queries and on databases without nulls, it coincides
    /// with the usual SQL evaluation").
    #[test]
    fn positive_queries_are_fixed_points_under_sql_dialect() {
        let q = RaExpr::relation("r")
            .join(RaExpr::relation("s"), eq("a", "c"))
            .select(eq("a", "b"))
            .project(&["a"]);
        let plus = translate_plus(&q, ConditionDialect::Sql).unwrap();
        assert_eq!(plus, q);
    }

    /// Division is anti-monotone in its divisor: R = {(7, 1)}, S = {(⊥₁)}
    /// and v(⊥₁) = 1 give Q(v(D)) = {(7)}, so Q★ must keep 7 although no
    /// tuple of R pairs 7 with ⊥₁.
    #[test]
    fn division_star_keeps_a_key_a_null_divisor_may_complete() {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a", "b"], vec![vec![Value::Int(7), Value::Int(1)]]));
        db.insert_relation("t", rel(&["b"], vec![vec![null(1)]]));
        let q = RaExpr::relation("r").divide(RaExpr::relation("t"), &db).unwrap();
        for (dialect, semantics) in DIALECTS {
            let star = translate_star(&q, dialect).unwrap();
            let out = eval(&star, &db, semantics).unwrap();
            assert_eq!(out.tuples(), &[Tuple::new(vec![Value::Int(7)])], "{dialect:?}: {star}");
        }
    }

    /// Each dialect with the semantics its translations are evaluated under.
    const DIALECTS: [(ConditionDialect, NullSemantics); 2] = [
        (ConditionDialect::Sql, NullSemantics::Sql),
        (ConditionDialect::Theoretical, NullSemantics::Naive),
    ];

    /// A small database over `r(a, b)`, `s(c, d)` and the divisor `t(b)`,
    /// with a few marked nulls so that every valuation can be enumerated.
    fn small_db(rng: &mut StdRng) -> Database {
        let value = |rng: &mut StdRng| {
            if rng.gen_bool(0.3) {
                null(rng.gen_range(1..4u64))
            } else {
                Value::Int(rng.gen_range(0..4i64))
            }
        };
        let rows = |rng: &mut StdRng, arity: usize| {
            let n = rng.gen_range(0..5usize);
            (0..n).map(|_| (0..arity).map(|_| value(rng)).collect()).collect::<Vec<Vec<_>>>()
        };
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a", "b"], rows(rng, 2)));
        db.insert_relation("s", rel(&["c", "d"], rows(rng, 2)));
        db.insert_relation("t", rel(&["b"], rows(rng, 1)));
        db
    }

    /// The fragment's shapes over the tables of `small_db`: selections,
    /// semi- and anti-joins (nested to depth 3), intersection, difference
    /// (nested), and division by a base and by a computed divisor.
    fn shapes(catalog: &dyn Catalog) -> Vec<RaExpr> {
        let bases = [
            RaExpr::relation("r"),
            RaExpr::relation("r").select(eq("a", "b")),
            RaExpr::relation("r").select(neq("a", "b")),
            RaExpr::relation("r").select(eq_const("a", 1i64)),
        ];
        let mut out = Vec::new();
        for b in bases {
            let s = || RaExpr::relation("s");
            let divide = |q: RaExpr, divisor: RaExpr| q.divide(divisor, catalog).unwrap();
            out.push(divide(b.clone(), RaExpr::relation("t")));
            out.push(divide(b.clone(), s().project(&["d"]).rename(&["b"])));
            out.push(b.clone().anti_join(s(), eq("a", "c")));
            out.push(b.clone().semi_join(s(), eq("a", "c")));
            out.push(b.clone().difference(s().project(&["c", "d"]).rename(&["a", "b"])));
            out.push(b.clone().intersect(s().rename(&["a", "b"])));
            let transposed = RaExpr::relation("r").project(&["b", "a"]).rename(&["a", "b"]);
            out.push(b.clone().difference(s().rename(&["a", "b"]).difference(transposed)));
            out.push(b.clone().anti_join(s(), eq("a", "c").and(neq("b", "d"))).project(&["a"]));
            let depth_3 = RaExpr::relation("r")
                .rename(&["x", "y"])
                .anti_join(s().rename(&["u", "w"]), eq("y", "u"));
            out.push(b.clone().anti_join(s().anti_join(depth_3, eq("d", "x")), eq("a", "c")));
            out.push(divide(b.anti_join(s(), eq("a", "c")), RaExpr::relation("t")));
        }
        out
    }

    /// `Q★` represents potential answers (Definition 3): Q(v(D)) ⊆ v(Q★(D))
    /// under *every* valuation `v` over the oracle's reduced domain, in both
    /// dialects. The first database is the division counter-example.
    #[test]
    fn q_star_covers_every_valuation() {
        use crate::core::certain::CertainOracle;
        use crate::data::valuation::enumerate_valuations;
        let mut rng = StdRng::seed_from_u64(0x57A3);
        let mut counter_example = Database::new();
        counter_example
            .insert_relation("r", rel(&["a", "b"], vec![vec![Value::Int(7), Value::Int(1)]]));
        counter_example.insert_relation("s", rel(&["c", "d"], vec![]));
        counter_example.insert_relation("t", rel(&["b"], vec![vec![null(1)]]));
        let dbs = std::iter::once(counter_example).chain((0..8).map(|_| small_db(&mut rng)));
        let mut checked = 0;
        for (case, db) in dbs.enumerate() {
            let nulls = db.active_domain().nulls;
            for q in shapes(&db) {
                let stars: Vec<_> = DIALECTS
                    .iter()
                    .map(|&(dialect, semantics)| {
                        eval(&translate_star(&q, dialect).unwrap(), &db, semantics).unwrap()
                    })
                    .collect();
                let domain = CertainOracle::default().valuation_domain(&q, &db);
                for v in enumerate_valuations(&nulls, &domain) {
                    let answers = eval(&q, &db.apply(&v), NullSemantics::Sql).unwrap();
                    for ((dialect, _), star) in DIALECTS.iter().zip(&stars) {
                        let image: Vec<Tuple> = star.iter().map(|t| t.apply(&v)).collect();
                        for t in answers.iter() {
                            assert!(
                                image.contains(t),
                                "case {case}, {dialect:?}: {t} under {v} missing from Q★ of {q}"
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 10_000, "{checked} (query, database, valuation) checks");
    }
}
