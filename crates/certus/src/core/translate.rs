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
        // Division with a base-relation divisor is positive (Fact 1 covers it);
        // a computed divisor is outside the supported fragment.
        RaExpr::Division { left, right } => match right.as_ref() {
            RaExpr::Relation { .. } | RaExpr::Values { .. } => {
                Ok(translate_plus(left, dialect)?.divide((**right).clone()))
            }
            _ => Err(Error::OutsideFragment(
                "division whose divisor is not a database relation".into(),
            )),
        },
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
        RaExpr::Division { left, right } => match right.as_ref() {
            RaExpr::Relation { .. } | RaExpr::Values { .. } => {
                Ok(translate_star(left, dialect)?.divide((**right).clone()))
            }
            _ => Err(Error::OutsideFragment(
                "division whose divisor is not a database relation".into(),
            )),
        },
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
    use crate::algebra::builder::{eq, neq_const};
    use crate::algebra::eval::eval;
    use crate::algebra::NullSemantics;
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::{Database, Value};

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
}
