//! The value domain: constants of several types plus marked nulls.

use crate::data::null::NullId;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A database value: either a constant from one of the supported base types,
/// or a (marked) null `⊥ᵢ`.
///
/// `Value` implements `Eq`/`Hash`/`Ord` *syntactically* — two nulls are equal
/// iff they carry the same [`NullId`], and floats are compared by their bit
/// pattern with NaN normalised. Syntactic equality is what naive evaluation
/// and hash-based physical operators need; SQL's three-valued comparisons
/// live in [`crate::data::compare`].
///
/// Strings are stored as `Arc<str>` so cloning a value — which joins,
/// projections and set operations do per surviving row — is a pointer bump
/// regardless of string length.
#[derive(Debug, Clone)]
pub enum Value {
    /// A marked null.
    Null(NullId),
    /// 64-bit integer constant.
    Int(i64),
    /// 64-bit float constant.
    Float(f64),
    /// Fixed-point decimal constant, stored as hundredths (e.g. `12.34` is `1234`).
    Decimal(i64),
    /// String constant (shared, cheap to clone).
    Str(Arc<str>),
    /// Boolean constant.
    Bool(bool),
    /// Date constant, stored as days since 1970-01-01.
    Date(i32),
}

impl Value {
    /// A fresh Codd null drawn from the global generator.
    pub fn fresh_null() -> Value {
        Value::Null(crate::data::null::NullGen::global().fresh())
    }

    /// Build a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Value {
        Value::Str(s.into())
    }

    /// Is this value a null?
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null(_))
    }

    /// Is this value a constant (i.e. not a null)?
    pub(crate) fn is_const(&self) -> bool {
        !self.is_null()
    }

    /// The null id, if this value is a null.
    pub fn null_id(&self) -> Option<NullId> {
        match self {
            Value::Null(id) => Some(*id),
            _ => None,
        }
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Decimal(d) => Some(*d as f64 / 100.0),
            _ => None,
        }
    }

    /// Integer view of the value, if it is an integer.
    pub(crate) fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String view of the value, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_ref()),
            _ => None,
        }
    }

    /// Date view of the value (days since epoch), if it is a date.
    pub(crate) fn as_date(&self) -> Option<i32> {
        match self {
            Value::Date(d) => Some(*d),
            _ => None,
        }
    }

    /// Normalised float bits used for hashing/equality (maps NaN to a single
    /// representation and `-0.0` to `0.0`).
    fn float_bits(f: f64) -> u64 {
        normalized_float_bits(f)
    }

    /// Rank of the variant used for the cross-type total order.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null(_) => 0,
            Value::Bool(_) => 1,
            Value::Int(_) => 2,
            Value::Decimal(_) => 3,
            Value::Float(_) => 4,
            Value::Date(_) => 5,
            Value::Str(_) => 6,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null(a), Value::Null(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => Self::float_bits(*a) == Self::float_bits(*b),
            (Value::Decimal(a), Value::Decimal(b)) => a == b,
            // Interned strings share one allocation, so the pointer check
            // settles most comparisons without walking the bytes.
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Date(a), Value::Date(b)) => a == b,
            // Cross numeric-type syntactic equality: Int(1) == Decimal(100) would be
            // surprising for hashing, so different variants are never syntactically equal.
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.type_rank().hash(state);
        match self {
            Value::Null(id) => id.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => Self::float_bits(*f).hash(state),
            Value::Decimal(d) => d.hash(state),
            Value::Str(s) => s.hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Date(d) => d.hash(state),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Value::Null(a), Value::Null(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Float(a), Value::Float(b)) => Self::float_bits(*a).cmp(&Self::float_bits(*b)),
            (Value::Decimal(a), Value::Decimal(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Date(a), Value::Date(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null(id) => write!(f, "{id}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Decimal(d) => write!(f, "{}.{:02}", d / 100, (d % 100).abs()),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Date(d) => {
                let (y, m, day) = crate::data::value::date_from_days(*d);
                write!(f, "{y:04}-{m:02}-{day:02}")
            }
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(v: Arc<str>) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// The float-bit normalisation behind [`Value`]'s syntactic equality and
/// hashing: every NaN maps to one representation and `-0.0` to `0.0`.
/// Columnar float columns hash and compare through the same function so the
/// vectorized operators agree with the row operators bit for bit.
pub(crate) fn normalized_float_bits(f: f64) -> u64 {
    if f.is_nan() {
        u64::MAX
    } else if f == 0.0 {
        0u64
    } else {
        f.to_bits()
    }
}

/// Convert a (year, month, day) triple to days since 1970-01-01.
///
/// Valid for years 1970..=9999 (proleptic Gregorian). Used by the TPC-H
/// generator for `DATE` columns.
pub(crate) fn days_from_date(year: i32, month: u32, day: u32) -> i32 {
    // Algorithm from Howard Hinnant's `days_from_civil`.
    let y = if month <= 2 { year - 1 } else { year };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = (y - era * 400) as i64;
    let mp = ((month + 9) % 12) as i64;
    let doy = (153 * mp + 2) / 5 + day as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era as i64 * 146097 + doe - 719468) as i32
}

/// Convert days since 1970-01-01 back to a (year, month, day) triple.
pub(crate) fn date_from_days(days: i32) -> (i32, u32, u32) {
    let z = days as i64 + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097;
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    let year = if m <= 2 { y + 1 } else { y } as i32;
    (year, m, d)
}

/// Build a [`Value::Date`] from a calendar date.
pub fn date(year: i32, month: u32, day: u32) -> Value {
    Value::Date(days_from_date(year, month, day))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nulls_equal_only_same_id() {
        assert_eq!(Value::Null(NullId(1)), Value::Null(NullId(1)));
        assert_ne!(Value::Null(NullId(1)), Value::Null(NullId(2)));
        assert_ne!(Value::Null(NullId(1)), Value::Int(1));
    }

    #[test]
    fn float_nan_is_self_equal() {
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
        assert_eq!(Value::Float(0.0), Value::Float(-0.0));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Decimal(1234).to_string(), "12.34");
        assert_eq!(Value::str("abc").to_string(), "'abc'");
        assert_eq!(date(1996, 3, 13).to_string(), "1996-03-13");
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (1992, 2, 29), (1998, 12, 31), (2024, 6, 15)] {
            let days = days_from_date(y, m, d);
            assert_eq!(date_from_days(days), (y, m, d));
        }
        assert_eq!(days_from_date(1970, 1, 1), 0);
        assert_eq!(days_from_date(1970, 1, 2), 1);
    }

    #[test]
    fn cross_type_order_is_total_and_consistent() {
        let vals = vec![
            Value::Null(NullId(3)),
            Value::Bool(true),
            Value::Int(7),
            Value::Decimal(700),
            Value::Float(7.0),
            Value::Date(100),
            Value::str("z"),
        ];
        let mut sorted = vals.clone();
        sorted.sort();
        // sorting is stable w.r.t. the type rank ordering declared above
        assert_eq!(sorted, vals);
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Decimal(150).as_f64(), Some(1.5));
        assert_eq!(Value::str("x").as_f64(), None);
    }

    #[test]
    fn string_clones_share_storage() {
        let a = Value::str("a long string the runtime should never re-copy");
        let b = a.clone();
        match (&a, &b) {
            (Value::Str(x), Value::Str(y)) => assert!(Arc::ptr_eq(x, y)),
            _ => unreachable!(),
        }
        assert_eq!(a, b);
    }
}
