//! Comparison semantics over values with nulls.
//!
//! Two evaluation regimes are implemented (paper, Section 2):
//!
//! * **SQL three-valued comparisons** (`sql_cmp`): any comparison touching a
//!   null yields `Truth::Unknown`; constants are compared by value (numeric
//!   types are mutually comparable).
//! * **Naive comparisons** (`naive_cmp`): nulls are treated as ordinary
//!   domain elements — `⊥ᵢ = ⊥ᵢ` is true, `⊥ᵢ = ⊥ⱼ` (i ≠ j) and `⊥ᵢ = c` are
//!   false. Order comparisons involving a null are false (naive evaluation is
//!   only guaranteed correct for positive queries with equality, Fact 1).

use crate::data::truth::Truth;
use crate::data::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Binary comparison operators of the SQL fragment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Neq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// The operator with its arguments swapped (`a op b` ⇔ `b op.flip() a`).
    pub(crate) fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The logical negation of the operator (`NOT (a op b)` ⇔ `a op.negate() b`
    /// on constants).
    pub(crate) fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Neq,
            CmpOp::Neq => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }

    /// Apply the operator to an [`Ordering`] between two constants.
    pub fn apply(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Neq => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// Compare two *constant* values semantically. Numeric types (`Int`,
/// `Decimal`, `Float`) are mutually comparable; other cross-type comparisons
/// fall back to the syntactic total order. Returns `None` if either value is
/// a null (callers decide how to interpret that).
pub(crate) fn const_ordering(a: &Value, b: &Value) -> Option<Ordering> {
    if a.is_null() || b.is_null() {
        return None;
    }
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        (Value::Date(x), Value::Date(y)) => Some(x.cmp(y)),
        _ => {
            // Numeric comparison when both sides are numeric.
            if let (Some(x), Some(y)) = (a.as_f64(), b.as_f64()) {
                return x.partial_cmp(&y).or(Some(Ordering::Equal));
            }
            Some(a.cmp(b))
        }
    }
}

/// SQL three-valued comparison: `Unknown` if either operand is a null,
/// otherwise the semantic comparison of the constants.
pub(crate) fn sql_cmp(a: &Value, op: CmpOp, b: &Value) -> Truth {
    match const_ordering(a, b) {
        None => Truth::Unknown,
        Some(ord) => Truth::from_bool(op.apply(ord)),
    }
}

/// SQL three-valued equality.
pub(crate) fn sql_eq(a: &Value, b: &Value) -> Truth {
    sql_cmp(a, CmpOp::Eq, b)
}

/// Naive (two-valued) comparison: nulls are ordinary values. Equality is
/// syntactic (`⊥ᵢ = ⊥ᵢ` holds, `⊥ᵢ = ⊥ⱼ` and `⊥ᵢ = c` do not); order
/// comparisons involving at least one null are false except when both sides
/// are the *same* null and the operator is reflexive (`<=`, `>=`, `=`).
pub(crate) fn naive_cmp(a: &Value, op: CmpOp, b: &Value) -> bool {
    if a.is_null() || b.is_null() {
        let same = a == b;
        return match op {
            CmpOp::Eq | CmpOp::Le | CmpOp::Ge => same,
            CmpOp::Neq => !same && (a.is_null() != b.is_null() || a != b),
            CmpOp::Lt | CmpOp::Gt => false,
        };
    }
    match const_ordering(a, b) {
        Some(ord) => op.apply(ord),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::null::NullId;

    fn n(i: u64) -> Value {
        Value::Null(NullId(i))
    }

    #[test]
    fn sql_null_comparisons_are_unknown() {
        assert_eq!(sql_eq(&n(1), &Value::Int(1)), Truth::Unknown);
        assert_eq!(sql_eq(&n(1), &n(1)), Truth::Unknown);
        assert_eq!(sql_cmp(&n(1), CmpOp::Lt, &Value::Int(3)), Truth::Unknown);
    }

    #[test]
    fn sql_constant_comparisons() {
        assert_eq!(sql_eq(&Value::Int(1), &Value::Int(1)), Truth::True);
        assert_eq!(sql_eq(&Value::Int(1), &Value::Int(2)), Truth::False);
        assert_eq!(sql_cmp(&Value::Int(1), CmpOp::Lt, &Value::Int(2)), Truth::True);
        assert_eq!(sql_cmp(&Value::str("a"), CmpOp::Lt, &Value::str("b")), Truth::True);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(sql_eq(&Value::Int(1), &Value::Decimal(100)), Truth::True);
        assert_eq!(sql_cmp(&Value::Decimal(150), CmpOp::Gt, &Value::Int(1)), Truth::True);
        assert_eq!(sql_eq(&Value::Float(2.0), &Value::Int(2)), Truth::True);
    }

    #[test]
    fn naive_null_equality_is_syntactic() {
        assert!(naive_cmp(&n(1), CmpOp::Eq, &n(1)));
        assert!(!naive_cmp(&n(1), CmpOp::Eq, &n(2)));
        assert!(!naive_cmp(&n(1), CmpOp::Eq, &Value::Int(1)));
        assert!(naive_cmp(&n(1), CmpOp::Neq, &n(2)));
        assert!(naive_cmp(&n(1), CmpOp::Neq, &Value::Int(1)));
        assert!(!naive_cmp(&n(1), CmpOp::Neq, &n(1)));
    }

    #[test]
    fn naive_order_with_null_is_false() {
        assert!(!naive_cmp(&n(1), CmpOp::Lt, &Value::Int(5)));
        assert!(!naive_cmp(&Value::Int(5), CmpOp::Gt, &n(1)));
        assert!(naive_cmp(&n(1), CmpOp::Le, &n(1)));
    }

    #[test]
    fn op_flip_and_negate() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.negate(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.negate(), CmpOp::Neq);
        for op in [CmpOp::Eq, CmpOp::Neq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            assert_eq!(op.flip().flip(), op);
            assert_eq!(op.negate().negate(), op);
        }
    }

    #[test]
    fn sql_date_comparisons() {
        let d1 = crate::data::value::date(1995, 1, 1);
        let d2 = crate::data::value::date(1996, 1, 1);
        assert_eq!(sql_cmp(&d1, CmpOp::Lt, &d2), Truth::True);
        assert_eq!(sql_cmp(&d2, CmpOp::Le, &d1), Truth::False);
    }
}
