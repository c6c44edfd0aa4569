//! The condition translations `θ*` and `θ**`.
//!
//! `θ*` *strengthens* a condition so that whenever a tuple satisfies `θ*`, all
//! valuations of its nulls satisfy `θ` (certainly true). `θ**` *weakens* a
//! condition so that whenever some valuation satisfies `θ`, the tuple
//! satisfies `θ**` (possibly true). By Corollary 1 of the paper any
//! strengthening of `θ*` and weakening of `θ**` preserves the correctness
//! guarantees, which is what licenses the per-dialect adjustments below and
//! the nullability-aware pruning in [`crate::plan::passes::null_prune`].
//!
//! The atoms of the paper are (dis)equalities between attributes and
//! constants. Our condition language additionally has order comparisons,
//! `LIKE`, `IN`-lists and comparisons against black-box scalar subqueries;
//! "there is nothing special about (dis)equality. The same translations can
//! be applied to other comparisons" (Section 7), and that is what we do.

use crate::algebra::condition::{Condition, Operand};
use crate::core::dialect::ConditionDialect;
use crate::data::compare::CmpOp;

/// Add `operand IS NOT NULL` conjuncts for every column operand in `ops`.
fn require_const(base: Condition, ops: &[&Operand]) -> Condition {
    let mut out = base;
    for op in ops {
        if op.is_col() {
            out = out.and(Condition::IsNotNull((*op).clone()));
        }
    }
    out
}

/// Add `operand IS NULL` disjuncts for every column operand in `ops`.
fn allow_null(base: Condition, ops: &[&Operand]) -> Condition {
    let mut out = base;
    for op in ops {
        if op.is_col() {
            out = Condition::Or(Box::new(out), Box::new(Condition::IsNull((*op).clone())));
        }
    }
    out
}

/// The translation `θ ↦ θ*` (certainly-true approximation).
///
/// The condition is first put in negation normal form, then translated atom
/// by atom:
///
/// * **Theoretical dialect** (naive evaluation): equalities are unchanged;
///   disequalities and order comparisons additionally require both column
///   operands to be non-null (`const(·)`), as do negated `LIKE` / `IN`.
/// * **SQL dialect** (three-valued evaluation): atoms are unchanged — under
///   3VL a comparison involving a null already evaluates to `unknown` and is
///   filtered out, so the extra `const(·)` conjuncts of the paper's
///   SQL-adjusted `θ*` are semantically redundant; omitting them produces
///   exactly the rewritten queries shown in the paper's appendix.
pub(crate) fn theta_star(condition: &Condition, dialect: ConditionDialect) -> Condition {
    star_rec(&condition.to_nnf(), dialect)
}

fn star_rec(c: &Condition, dialect: ConditionDialect) -> Condition {
    match c {
        Condition::True | Condition::False => c.clone(),
        Condition::Cmp { left, op, right } => {
            let base = c.clone();
            match dialect {
                ConditionDialect::Sql => base,
                ConditionDialect::Theoretical => match op {
                    CmpOp::Eq => base,
                    _ => require_const(base, &[left, right]),
                },
            }
        }
        Condition::IsNull(_) | Condition::IsNotNull(_) => c.clone(),
        Condition::Like { expr, negated, .. } => {
            let base = c.clone();
            match dialect {
                ConditionDialect::Sql => base,
                ConditionDialect::Theoretical => {
                    if *negated {
                        require_const(base, &[expr])
                    } else {
                        base
                    }
                }
            }
        }
        Condition::InList { expr, negated, .. } => {
            let base = c.clone();
            match dialect {
                ConditionDialect::Sql => base,
                ConditionDialect::Theoretical => {
                    if *negated {
                        require_const(base, &[expr])
                    } else {
                        base
                    }
                }
            }
        }
        Condition::And(a, b) => star_rec(a, dialect).and(star_rec(b, dialect)),
        Condition::Or(a, b) => {
            Condition::Or(Box::new(star_rec(a, dialect)), Box::new(star_rec(b, dialect)))
        }
        // to_nnf leaves no Not nodes, but be conservative if one sneaks in.
        Condition::Not(_) => star_rec(&c.to_nnf(), dialect),
    }
}

/// The translation `θ ↦ θ**` (possibly-true approximation), defined as
/// `¬(¬θ)*` in the paper and implemented directly:
///
/// * **Theoretical dialect**: equalities and order comparisons gain
///   `∨ null(·)` disjuncts for their column operands (a null could be mapped
///   to a value making the comparison true); disequalities are unchanged
///   (naive evaluation already overapproximates them). Same for `LIKE`/`IN`.
/// * **SQL dialect**: *every* comparison gains the `∨ · IS NULL` disjuncts —
///   under 3VL a comparison with a null is `unknown` and would be filtered,
///   so the disjuncts are required to keep `θ**` an overapproximation. This
///   is the paper's Section 7 adjustment and the source of the
///   `A = B OR B IS NULL` conditions in the rewritten queries.
pub(crate) fn theta_star_star(condition: &Condition, dialect: ConditionDialect) -> Condition {
    star_star_rec(&condition.to_nnf(), dialect)
}

fn star_star_rec(c: &Condition, dialect: ConditionDialect) -> Condition {
    match c {
        Condition::True | Condition::False => c.clone(),
        Condition::Cmp { left, op, right } => {
            let base = c.clone();
            match dialect {
                ConditionDialect::Sql => allow_null(base, &[left, right]),
                ConditionDialect::Theoretical => match op {
                    CmpOp::Neq => base,
                    _ => allow_null(base, &[left, right]),
                },
            }
        }
        Condition::IsNull(_) | Condition::IsNotNull(_) => c.clone(),
        Condition::Like { expr, negated, .. } => {
            let base = c.clone();
            match dialect {
                ConditionDialect::Sql => allow_null(base, &[expr]),
                ConditionDialect::Theoretical => {
                    if *negated {
                        base
                    } else {
                        allow_null(base, &[expr])
                    }
                }
            }
        }
        Condition::InList { expr, negated, .. } => {
            let base = c.clone();
            match dialect {
                ConditionDialect::Sql => allow_null(base, &[expr]),
                ConditionDialect::Theoretical => {
                    if *negated {
                        base
                    } else {
                        allow_null(base, &[expr])
                    }
                }
            }
        }
        Condition::And(a, b) => star_star_rec(a, dialect).and(star_star_rec(b, dialect)),
        Condition::Or(a, b) => {
            Condition::Or(Box::new(star_star_rec(a, dialect)), Box::new(star_star_rec(b, dialect)))
        }
        Condition::Not(_) => star_star_rec(&c.to_nnf(), dialect),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{col, eq, eq_const, like, neq};
    use crate::algebra::eval::Evaluator;
    use crate::algebra::NullSemantics;
    use crate::data::null::NullId;
    use crate::data::truth::Truth;
    use crate::data::{Database, Schema, Tuple, Value};

    #[test]
    fn sql_dialect_star_keeps_atoms() {
        let c = eq("a", "b").and(neq("a", "c"));
        assert_eq!(theta_star(&c, ConditionDialect::Sql), c);
    }

    #[test]
    fn theoretical_star_guards_disequalities() {
        let c = neq("a", "b");
        let t = theta_star(&c, ConditionDialect::Theoretical);
        let s = t.to_string();
        assert!(s.contains("a IS NOT NULL"));
        assert!(s.contains("b IS NOT NULL"));
        // Equalities stay untouched.
        assert_eq!(theta_star(&eq("a", "b"), ConditionDialect::Theoretical), eq("a", "b"));
    }

    #[test]
    fn sql_star_star_adds_is_null_to_every_comparison() {
        let c = eq("a", "b");
        let t = theta_star_star(&c, ConditionDialect::Sql);
        assert_eq!(t.to_string(), "((a = b OR a IS NULL) OR b IS NULL)");
        let d = neq("a", "b");
        let t = theta_star_star(&d, ConditionDialect::Sql);
        assert!(t.to_string().contains("IS NULL"));
    }

    #[test]
    fn theoretical_star_star_spares_disequalities() {
        let d = neq("a", "b");
        assert_eq!(theta_star_star(&d, ConditionDialect::Theoretical), d);
        let e = eq("a", "b");
        assert!(theta_star_star(&e, ConditionDialect::Theoretical).to_string().contains("IS NULL"));
    }

    #[test]
    fn constants_do_not_get_null_guards() {
        let c = eq_const("a", 5i64);
        let t = theta_star_star(&c, ConditionDialect::Sql);
        // only the column side gains a guard
        assert_eq!(t.to_string(), "(a = 5 OR a IS NULL)");
    }

    #[test]
    fn negation_is_pushed_before_translation() {
        // ¬(a = b) must be treated as a disequality.
        let c = eq("a", "b").not();
        let t = theta_star(&c, ConditionDialect::Theoretical);
        assert!(t.to_string().contains("<>"));
        assert!(t.to_string().contains("IS NOT NULL"));
    }

    #[test]
    fn like_translations() {
        let c = like("p_name", "%red%");
        let t = theta_star_star(&c, ConditionDialect::Sql);
        assert_eq!(t.to_string(), "(p_name LIKE '%red%' OR p_name IS NULL)");
        assert_eq!(theta_star(&c, ConditionDialect::Sql), c);
    }

    /// Semantic check of the key property on a concrete tuple space:
    /// θ* true ⇒ θ true under every valuation; θ true under some valuation ⇒ θ** true.
    #[test]
    fn star_and_star_star_bracket_the_condition() {
        let schema = Schema::of_names(&["a", "b"]);
        let db = Database::new();
        let cond = eq("a", "b");
        let domain = [Value::Int(1), Value::Int(2)];
        // Tuples mixing constants and a null.
        let tuples = vec![
            Tuple::new(vec![Value::Int(1), Value::Int(1)]),
            Tuple::new(vec![Value::Int(1), Value::Int(2)]),
            Tuple::new(vec![Value::Int(1), Value::Null(NullId(1))]),
        ];
        for (dialect, sem) in [
            (ConditionDialect::Sql, NullSemantics::Sql),
            (ConditionDialect::Theoretical, NullSemantics::Naive),
        ] {
            let ev = Evaluator::new(&db, sem);
            let star = theta_star(&cond, dialect);
            let star_star = theta_star_star(&cond, dialect);
            for t in &tuples {
                let star_holds = ev.eval_condition(&star, &schema, t).unwrap() == Truth::True;
                let ss_holds = ev.eval_condition(&star_star, &schema, t).unwrap() == Truth::True;
                // Ground-truth: evaluate the original condition under every valuation.
                let nulls = t.null_ids();
                let mut all = true;
                let mut some = false;
                for v in crate::data::valuation::enumerate_valuations(&nulls, &domain) {
                    let ground = t.apply(&v);
                    let sql_ev = Evaluator::new(&db, NullSemantics::Sql);
                    let holds =
                        sql_ev.eval_condition(&cond, &schema, &ground).unwrap() == Truth::True;
                    all &= holds;
                    some |= holds;
                }
                if star_holds {
                    assert!(all, "θ* held but θ not certain for {t} ({dialect:?})");
                }
                if some {
                    assert!(ss_holds, "θ possibly true but θ** failed for {t} ({dialect:?})");
                }
            }
        }
    }

    #[test]
    fn scalar_operands_are_left_alone() {
        // Comparisons against scalar subqueries only guard the column side.
        let agg = crate::algebra::RaExpr::relation("r");
        let c = Condition::Cmp {
            left: col("c_acctbal"),
            op: CmpOp::Gt,
            right: Operand::Scalar(Box::new(agg)),
        };
        let t = theta_star_star(&c, ConditionDialect::Sql);
        assert!(t.to_string().contains("c_acctbal IS NULL"));
    }
}
