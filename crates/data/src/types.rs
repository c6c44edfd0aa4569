//! Value types for schema columns.

use std::fmt;

/// The SQL-ish type of a column. Incomplete databases in the paper are typed
/// over a single domain `Const`, but real instances (and the TPC-H schema)
/// use several base types; the translations are oblivious to the distinction
/// (paper, Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ValueType {
    /// 64-bit signed integer.
    Int,
    /// 64-bit floating point.
    Float,
    /// Fixed-point decimal stored as integer hundredths (TPC-H money columns).
    Decimal,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
    /// Calendar date stored as days since 1970-01-01.
    Date,
    /// Unconstrained type (used for intermediate results and tests).
    Any,
}

impl ValueType {
    /// Whether a value of type `other` can be stored in a column of this type
    /// without loss of meaning (numeric types are mutually compatible).
    pub fn accepts(self, other: ValueType) -> bool {
        use ValueType::*;
        if self == Any || other == Any || self == other {
            return true;
        }
        matches!(
            (self, other),
            (Int, Decimal)
                | (Decimal, Int)
                | (Float, Int)
                | (Int, Float)
                | (Float, Decimal)
                | (Decimal, Float)
        )
    }
}

impl fmt::Display for ValueType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueType::Int => "INT",
            ValueType::Float => "FLOAT",
            ValueType::Decimal => "DECIMAL",
            ValueType::Str => "VARCHAR",
            ValueType::Bool => "BOOLEAN",
            ValueType::Date => "DATE",
            ValueType::Any => "ANY",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_accepts_everything() {
        for t in [ValueType::Int, ValueType::Str, ValueType::Date] {
            assert!(ValueType::Any.accepts(t));
            assert!(t.accepts(ValueType::Any));
        }
    }

    #[test]
    fn numeric_cross_acceptance() {
        assert!(ValueType::Int.accepts(ValueType::Decimal));
        assert!(ValueType::Decimal.accepts(ValueType::Float));
        assert!(!ValueType::Int.accepts(ValueType::Str));
    }

    #[test]
    fn display_names() {
        assert_eq!(ValueType::Str.to_string(), "VARCHAR");
        assert_eq!(ValueType::Date.to_string(), "DATE");
    }
}
