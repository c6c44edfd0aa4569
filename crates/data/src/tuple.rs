//! Tuples: ordered sequences of values, immutable and shared by pointer.
//!
//! A [`Tuple`] is an `Arc<[Value]>`: one allocation holding the reference
//! count and the values. Rows are never mutated after they are built, so
//! every operator that passes a row on unchanged — a scan, a filter's
//! survivors, a semijoin's preserved side, a union, a set operation, the
//! answer boundary, the snapshot store's copy-on-write of a relation —
//! bumps a reference count instead of copying `arity` values. Only the
//! operators that build *new* rows ([`Tuple::concat`], [`Tuple::project`],
//! collecting an iterator) allocate, sized exactly.

use crate::null::NullId;
use crate::valuation::Valuation;
use crate::value::Value;
use std::fmt;
use std::sync::Arc;

/// A database tuple. Equality and hashing are syntactic (see [`Value`]),
/// which is what set semantics, hash joins and naive evaluation require.
/// `clone` is a reference-count bump: clones share their values.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tuple(Arc<[Value]>);

impl Tuple {
    /// Create a tuple from a vector of values (moved into the shared
    /// allocation).
    pub fn new(values: Vec<Value>) -> Self {
        Tuple(values.into())
    }

    /// The empty (0-ary) tuple.
    pub fn empty() -> Self {
        Tuple(Arc::new([]))
    }

    /// Number of values in the tuple.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether this is the empty tuple.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Borrow the underlying values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// A copy of the underlying values (rows are shared, so they cannot be
    /// moved out of).
    pub fn into_values(self) -> Vec<Value> {
        self.0.to_vec()
    }

    /// The value at a position (panics if out of bounds — positions are
    /// validated against schemas before evaluation).
    pub fn get(&self, idx: usize) -> &Value {
        &self.0[idx]
    }

    /// Checked access to a value by position.
    pub fn try_get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// Concatenate two tuples (used by Cartesian product / join operators).
    pub fn concat(&self, other: &Tuple) -> Tuple {
        // Two slice extends then one move into the shared allocation:
        // measurably faster than collecting a `Chain` element by element.
        let mut values = Vec::with_capacity(self.len() + other.len());
        values.extend_from_slice(&self.0);
        values.extend_from_slice(&other.0);
        Tuple::new(values)
    }

    /// Project the tuple onto the given positions.
    pub fn project(&self, positions: &[usize]) -> Tuple {
        positions.iter().map(|&i| self.0[i].clone()).collect()
    }

    /// Whether the tuple contains any null value.
    pub fn has_null(&self) -> bool {
        self.0.iter().any(Value::is_null)
    }

    /// Whether the tuple consists of constants only.
    pub fn is_ground(&self) -> bool {
        !self.has_null()
    }

    /// The set of null ids occurring in the tuple (with duplicates removed,
    /// in order of first occurrence).
    pub fn null_ids(&self) -> Vec<NullId> {
        let mut out = Vec::new();
        for v in self.0.iter() {
            if let Value::Null(id) = v {
                if !out.contains(id) {
                    out.push(*id);
                }
            }
        }
        out
    }

    /// Apply a valuation to the tuple, replacing nulls with constants where
    /// the valuation is defined.
    pub fn apply(&self, v: &Valuation) -> Tuple {
        self.0.iter().map(|x| v.apply_value(x)).collect()
    }
}

impl fmt::Display for Tuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, ")")
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(v: Vec<Value>) -> Self {
        Tuple::new(v)
    }
}

/// Collecting an iterator of known exact length (a mapped slice, an array)
/// writes straight into the shared allocation — one allocation per row.
impl FromIterator<Value> for Tuple {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Self {
        Tuple(iter.into_iter().collect())
    }
}

impl std::ops::Index<usize> for Tuple {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::null::NullId;

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    #[test]
    fn concat_and_project() {
        let a = t(vec![Value::Int(1), Value::Int(2)]);
        let b = t(vec![Value::str("x")]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.project(&[2, 0]), t(vec![Value::str("x"), Value::Int(1)]));
    }

    #[test]
    fn null_detection() {
        let g = t(vec![Value::Int(1), Value::Int(2)]);
        assert!(g.is_ground());
        let n = t(vec![Value::Int(1), Value::Null(NullId(3)), Value::Null(NullId(3))]);
        assert!(n.has_null());
        assert_eq!(n.null_ids(), vec![NullId(3)]);
    }

    #[test]
    fn display_roundtrips_values() {
        let x = t(vec![Value::Int(1), Value::str("a"), Value::Null(NullId(2))]);
        assert_eq!(x.to_string(), "(1, 'a', ⊥2)");
    }

    #[test]
    fn indexing_and_iteration() {
        let x = t(vec![Value::Int(10), Value::Int(20)]);
        assert_eq!(x[1], Value::Int(20));
        assert_eq!(x.try_get(5), None);
        let collected: Tuple = x.values().iter().cloned().collect();
        assert_eq!(collected, x);
    }

    #[test]
    fn empty_tuple() {
        let e = Tuple::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_ground());
    }
}
