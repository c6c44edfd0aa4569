//! Valuations: maps from nulls to constants.
//!
//! A valuation `v : Null(D) → Const` produces one of the complete databases
//! `v(D)` represented by an incomplete database `D` under the closed-world
//! missing-value semantics (paper, Section 2). The certain-answer oracle in
//! `certus::core` enumerates valuations; this module provides the map type and
//! the enumeration helper.

use crate::data::null::NullId;
use crate::data::value::Value;
use std::collections::BTreeMap;
use std::fmt;

/// A (partial) map from null ids to constant values. Nulls not in the map are
/// left untouched by `Valuation::apply_value`, which lets partial valuations
/// be composed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Valuation {
    map: BTreeMap<NullId, Value>,
}

impl Valuation {
    /// The empty valuation.
    pub fn new() -> Self {
        Valuation { map: BTreeMap::new() }
    }

    /// Assign a constant to a null (the value must be a constant).
    pub fn set(&mut self, id: NullId, value: Value) {
        debug_assert!(value.is_const(), "valuations map nulls to constants");
        self.map.insert(id, value);
    }

    /// Look up the constant assigned to a null.
    pub fn get(&self, id: NullId) -> Option<&Value> {
        self.map.get(&id)
    }

    /// Number of nulls assigned.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the valuation assigns no nulls.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Apply the valuation to a value: nulls with an assignment are replaced,
    /// everything else is returned unchanged.
    pub(crate) fn apply_value(&self, v: &Value) -> Value {
        match v {
            Value::Null(id) => self.map.get(id).cloned().unwrap_or_else(|| v.clone()),
            other => other.clone(),
        }
    }

    /// Whether every null in the given iterator is assigned.
    pub fn covers(&self, nulls: impl IntoIterator<Item = NullId>) -> bool {
        nulls.into_iter().all(|id| self.map.contains_key(&id))
    }

    /// Iterate over the assignments.
    pub fn iter(&self) -> impl Iterator<Item = (&NullId, &Value)> {
        self.map.iter()
    }
}

impl fmt::Display for Valuation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (id, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id} ↦ {v}")?;
        }
        write!(f, "}}")
    }
}

/// Enumerate *all* valuations assigning each null in `nulls` a value from
/// `domain`. The number of valuations is `|domain|^|nulls|`; callers are
/// expected to keep both small (this is the exponential certain-answer oracle
/// of the paper's Section 4, used only for ground truth on tiny instances).
pub(crate) fn enumerate_valuations(nulls: &[NullId], domain: &[Value]) -> Vec<Valuation> {
    if nulls.is_empty() {
        return vec![Valuation::new()];
    }
    if domain.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(domain.len().pow(nulls.len() as u32));
    let mut indices = vec![0usize; nulls.len()];
    loop {
        let mut v = Valuation::new();
        for (i, &id) in nulls.iter().enumerate() {
            v.set(id, domain[indices[i]].clone());
        }
        out.push(v);
        // Odometer increment.
        let mut pos = 0;
        loop {
            if pos == nulls.len() {
                return out;
            }
            indices[pos] += 1;
            if indices[pos] < domain.len() {
                break;
            }
            indices[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::tuple::Tuple;

    #[test]
    fn apply_replaces_only_assigned_nulls() {
        let mut v = Valuation::new();
        v.set(NullId(1), Value::Int(7));
        assert_eq!(v.apply_value(&Value::Null(NullId(1))), Value::Int(7));
        assert_eq!(v.apply_value(&Value::Null(NullId(2))), Value::Null(NullId(2)));
        assert_eq!(v.apply_value(&Value::Int(3)), Value::Int(3));
    }

    #[test]
    fn tuple_application() {
        let mut v = Valuation::new();
        v.set(NullId(1), Value::str("x"));
        let t = Tuple::new(vec![Value::Null(NullId(1)), Value::Int(2)]);
        assert_eq!(t.apply(&v), Tuple::new(vec![Value::str("x"), Value::Int(2)]));
    }

    #[test]
    fn covers_check() {
        let v = Valuation { map: [(NullId(1), Value::Int(1)), (NullId(2), Value::Int(2))].into() };
        assert!(v.covers([NullId(1), NullId(2)]));
        assert!(!v.covers([NullId(3)]));
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn enumeration_counts() {
        let nulls = vec![NullId(1), NullId(2)];
        let domain = vec![Value::Int(1), Value::Int(2), Value::Int(3)];
        let all = enumerate_valuations(&nulls, &domain);
        assert_eq!(all.len(), 9);
        // All valuations are distinct and total on the nulls.
        for v in &all {
            assert!(v.covers(nulls.iter().copied()));
        }
        let unique: std::collections::HashSet<String> = all.iter().map(|v| v.to_string()).collect();
        assert_eq!(unique.len(), 9);
    }

    #[test]
    fn enumeration_edge_cases() {
        assert_eq!(enumerate_valuations(&[], &[Value::Int(1)]).len(), 1);
        assert!(enumerate_valuations(&[NullId(1)], &[]).is_empty());
    }

    #[test]
    fn display_format() {
        let v = Valuation { map: [(NullId(3), Value::Int(9))].into() };
        assert_eq!(v.to_string(), "{⊥3 ↦ 9}");
    }
}
