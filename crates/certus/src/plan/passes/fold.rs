//! Constant and condition folding.
//!
//! * Comparisons between two non-null constants are evaluated at plan time
//!   (their truth value is the same under SQL 3VL and naive semantics, so
//!   folding is strongly semantics-preserving).
//! * `IS [NOT] NULL` over a constant operand folds to a Boolean constant.
//! * Boolean connectives re-simplify (`TRUE AND c → c`, `FALSE OR c → c`, …)
//!   via the Kleene-safe [`Condition::and`] / [`Condition::or`] / `not`.
//! * `σ_TRUE(e) → e` and `σ_FALSE(e) →` an empty literal relation with the
//!   input's schema; a join whose folded condition is `FALSE` likewise
//!   becomes an empty literal relation.

use crate::algebra::condition::{Condition, Operand};
use crate::algebra::expr::RaExpr;
use crate::algebra::schema_infer::{output_schema, Catalog};
use crate::data::compare::sql_cmp;
use crate::data::truth::Truth;
use crate::Result;

/// Fold constants and trivial conditions everywhere in the expression.
pub fn fold(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    expr.transform_up(&mut |node| {
        Ok(match node {
            RaExpr::Select { input, condition } => match fold_condition(&condition) {
                Condition::True => *input,
                Condition::False => empty_like(&input, catalog)?,
                folded => input.select(folded),
            },
            RaExpr::Join { left, right, condition } => match fold_condition(&condition) {
                Condition::False => {
                    let schema =
                        output_schema(&left, catalog)?.concat(&output_schema(&right, catalog)?);
                    RaExpr::Values { schema, rows: Vec::new() }
                }
                folded => left.join(*right, folded),
            },
            RaExpr::SemiJoin { left, right, condition } => {
                match fold_condition(&condition) {
                    // No tuple can ever match: the semijoin is empty.
                    Condition::False => empty_like(&left, catalog)?,
                    folded => left.semi_join(*right, folded),
                }
            }
            RaExpr::AntiJoin { left, right, condition } => {
                match fold_condition(&condition) {
                    // No tuple can ever match: every left tuple survives.
                    Condition::False => *left,
                    folded => left.anti_join(*right, folded),
                }
            }
            other => other,
        })
    })
}

fn empty_like(input: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    let schema = output_schema(input, catalog)?;
    Ok(RaExpr::Values { schema, rows: Vec::new() })
}

/// Fold a condition bottom-up. Only rewrites whose truth value is identical
/// under SQL and naive semantics are applied; in particular, comparisons are
/// folded only when **both** operands are non-null constants.
pub(crate) fn fold_condition(condition: &Condition) -> Condition {
    match condition {
        Condition::Cmp { left, op, right } => {
            if let (Operand::Const(a), Operand::Const(b)) = (left, right) {
                if a.is_const() && b.is_const() {
                    // Non-null constants: 3VL and naive evaluation agree.
                    return match sql_cmp(a, *op, b) {
                        Truth::True => Condition::True,
                        Truth::False => Condition::False,
                        Truth::Unknown => condition.clone(),
                    };
                }
            }
            condition.clone()
        }
        Condition::IsNull(Operand::Const(v)) => {
            if v.is_null() {
                Condition::True
            } else {
                Condition::False
            }
        }
        Condition::IsNotNull(Operand::Const(v)) => {
            if v.is_null() {
                Condition::False
            } else {
                Condition::True
            }
        }
        Condition::And(a, b) => fold_condition(a).and(fold_condition(b)),
        Condition::Or(a, b) => fold_condition(a).or(fold_condition(b)),
        Condition::Not(inner) => fold_condition(inner).not(),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{eq, eq_const};
    use crate::data::builder::rel;
    use crate::data::{Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation("r", rel(&["a", "b"], vec![vec![Value::Int(1), Value::Int(2)]]));
        db.insert_relation("s", rel(&["c", "d"], vec![vec![Value::Int(1), Value::Int(2)]]));
        db
    }

    fn lit(v: i64) -> Operand {
        Operand::Const(Value::Int(v))
    }

    #[test]
    fn const_comparisons_fold_to_booleans() {
        let t = Condition::Cmp { left: lit(1), op: crate::data::compare::CmpOp::Lt, right: lit(2) };
        assert_eq!(fold_condition(&t), Condition::True);
        let f = Condition::Cmp { left: lit(3), op: crate::data::compare::CmpOp::Eq, right: lit(2) };
        assert_eq!(fold_condition(&f), Condition::False);
        // Column comparisons are untouched.
        assert_eq!(fold_condition(&eq("a", "b")), eq("a", "b"));
    }

    #[test]
    fn null_checks_on_constants_fold() {
        assert_eq!(fold_condition(&Condition::IsNull(lit(1))), Condition::False);
        assert_eq!(fold_condition(&Condition::IsNotNull(lit(1))), Condition::True);
        let null_op = Operand::Const(Value::fresh_null());
        assert_eq!(fold_condition(&Condition::IsNull(null_op)), Condition::True);
    }

    #[test]
    fn connectives_resimplify_after_folding() {
        let c = Condition::Cmp { left: lit(1), op: crate::data::compare::CmpOp::Eq, right: lit(1) }
            .and(eq("a", "b"));
        assert_eq!(fold_condition(&c), eq("a", "b"));
        let c = Condition::Cmp { left: lit(1), op: crate::data::compare::CmpOp::Eq, right: lit(2) }
            .or(eq("a", "b"));
        assert_eq!(fold_condition(&c), eq("a", "b"));
        let c = Condition::Not(Box::new(Condition::Cmp {
            left: lit(1),
            op: crate::data::compare::CmpOp::Eq,
            right: lit(1),
        }));
        assert_eq!(fold_condition(&c), Condition::False);
    }

    #[test]
    fn true_selection_is_dropped_and_false_selection_empties() {
        let db = db();
        let q = RaExpr::relation("r").select(Condition::True);
        assert_eq!(fold(&q, &db).unwrap(), RaExpr::relation("r"));

        let q = RaExpr::relation("r").select(Condition::False);
        match fold(&q, &db).unwrap() {
            RaExpr::Values { schema, rows } => {
                assert_eq!(schema.names(), vec!["a", "b"]);
                assert!(rows.is_empty());
            }
            other => panic!("expected empty Values, got {other}"),
        }
    }

    #[test]
    fn false_join_and_semijoins_simplify() {
        let db = db();
        let f = Condition::Cmp { left: lit(1), op: crate::data::compare::CmpOp::Eq, right: lit(2) };
        let join = RaExpr::relation("r").join(RaExpr::relation("s"), f.clone());
        assert!(
            matches!(fold(&join, &db).unwrap(), RaExpr::Values { ref rows, .. } if rows.is_empty())
        );
        let semi = RaExpr::relation("r").semi_join(RaExpr::relation("s"), f.clone());
        assert!(
            matches!(fold(&semi, &db).unwrap(), RaExpr::Values { ref rows, .. } if rows.is_empty())
        );
        // An anti-join against an impossible condition keeps all left tuples.
        let anti = RaExpr::relation("r").anti_join(RaExpr::relation("s"), f);
        assert_eq!(fold(&anti, &db).unwrap(), RaExpr::relation("r"));
    }

    #[test]
    fn fold_is_a_fixpoint_on_clean_queries() {
        let db = db();
        let q = RaExpr::relation("r")
            .join(RaExpr::relation("s"), eq("a", "c"))
            .select(eq_const("b", 2i64));
        let once = fold(&q, &db).unwrap();
        assert_eq!(once, q, "nothing to fold");
        assert_eq!(fold(&once, &db).unwrap(), once);
    }
}
