//! Convenience constructors for relations and databases, used pervasively in
//! tests, examples and the paper's worked examples.

use crate::relation::Relation;
use crate::schema::Schema;
use crate::tuple::Tuple;
use crate::value::Value;

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
        vec![$($crate::value::Value::from($v)),*]
    };
}

#[cfg(test)]
mod tests {
    use super::*;

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
