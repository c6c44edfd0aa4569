//! Convenience constructors for relations, rows, algebra expressions and
//! conditions, used pervasively in tests, examples and the paper's worked
//! examples. The data layer re-exports [`rel`] as `data::builder::rel`; the
//! algebra layer re-exports the whole module as `algebra::builder`.

use crate::algebra::condition::{Condition, Operand};
use crate::algebra::expr::RaExpr;
use crate::data::compare::CmpOp;
use crate::data::relation::Relation;
use crate::data::{Schema, Tuple, Value};

/// Build a relation from column names and rows of values. Columns are typed
/// `Any` and nullable; arity mismatches panic (this is a test helper).
pub fn rel(columns: &[&str], rows: Vec<Vec<Value>>) -> Relation {
    let schema = Schema::of_names(columns).shared();
    let mut out = Relation::empty(schema);
    for row in rows {
        out.insert(Tuple::new(row)).expect("row arity must match columns");
    }
    out
}

/// Shorthand for a row of values.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        vec![$($crate::data::value::Value::from($v)),*]
    };
}

/// A column operand.
pub fn col(name: impl Into<String>) -> Operand {
    Operand::Col(name.into())
}

/// Scan a base relation.
pub fn table(name: impl Into<String>) -> RaExpr {
    RaExpr::relation(name)
}

/// A literal relation from column names and rows.
pub fn lit(columns: &[&str], rows: Vec<Vec<Value>>) -> RaExpr {
    RaExpr::Values {
        schema: Schema::of_names(columns),
        rows: rows.into_iter().map(Tuple::new).collect(),
    }
}

/// Alias of [`lit`] matching the re-export name used in `lib.rs`.
pub fn values(columns: &[&str], rows: Vec<Vec<Value>>) -> RaExpr {
    lit(columns, rows)
}

/// `left = right` over two columns.
pub fn eq(a: impl Into<String>, b: impl Into<String>) -> Condition {
    Condition::eq_cols(a, b)
}

/// `column = constant`.
pub fn eq_const(a: impl Into<String>, v: impl Into<Value>) -> Condition {
    Condition::cmp_const(a, CmpOp::Eq, v.into())
}

/// `column <> constant`.
pub fn neq_const(a: impl Into<String>, v: impl Into<Value>) -> Condition {
    Condition::cmp_const(a, CmpOp::Neq, v.into())
}

/// `left <> right` over two columns.
pub fn neq(a: impl Into<String>, b: impl Into<String>) -> Condition {
    Condition::Cmp { left: col(a), op: CmpOp::Neq, right: col(b) }
}

/// `left > right` over two columns.
pub fn gt(a: impl Into<String>, b: impl Into<String>) -> Condition {
    Condition::Cmp { left: col(a), op: CmpOp::Gt, right: col(b) }
}

/// `column IS NULL`.
pub fn is_null(a: impl Into<String>) -> Condition {
    Condition::IsNull(col(a))
}

/// `column LIKE pattern`.
pub fn like(a: impl Into<String>, pattern: impl Into<String>) -> Condition {
    Condition::Like { expr: col(a), pattern: pattern.into(), negated: false }
}

/// `column IN (values…)`.
pub(crate) fn in_list(a: impl Into<String>, values: Vec<Value>) -> Condition {
    Condition::InList { expr: col(a), list: values, negated: false }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::eval::eval;
    use crate::algebra::semantics::NullSemantics;
    use crate::data::Database;

    #[test]
    fn builders_produce_expected_shapes() {
        let c = eq("a", "b").and(eq_const("c", 1i64)).or(is_null("d"));
        assert!(c.columns().contains("a"));
        assert!(matches!(c, Condition::Or(_, _)));
        let q = table("r").select(neq("a", "b"));
        assert_eq!(q.children(), vec![&RaExpr::relation("r")]);
    }

    #[test]
    fn literal_relation_evaluates() {
        let db = Database::new();
        let q = values(&["x"], vec![vec![Value::Int(1)], vec![Value::Int(2)]])
            .select(eq_const("x", 2i64));
        let out = eval(&q, &db, NullSemantics::Sql).unwrap();
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn comparison_builders() {
        assert_eq!(gt("a", "b").to_string(), "a > b");
        assert_eq!(neq_const("a", 3i64).to_string(), "a <> 3");
        assert_eq!(like("p", "%x%").to_string(), "p LIKE '%x%'");
        assert_eq!(in_list("n", vec![Value::Int(1)]).to_string(), "n IN (1)");
    }

    #[test]
    fn rel_builder() {
        let r = rel(&["a", "b"], vec![vec![Value::Int(1), Value::str("x")]]);
        assert_eq!(r.arity(), 2);
        assert_eq!(r.len(), 1);
        assert_eq!(r.schema().names(), vec!["a", "b"]);
    }

    #[test]
    fn row_macro() {
        let r: Vec<Value> = row![1i64, "x", true];
        assert_eq!(r, vec![Value::Int(1), Value::str("x"), Value::Bool(true)]);
    }

    #[test]
    #[should_panic]
    fn rel_builder_panics_on_bad_arity() {
        rel(&["a", "b"], vec![vec![Value::Int(1)]]);
    }
}
