//! Unifiability of values and tuples (Definition 2 of the paper).
//!
//! Two tuples `r̄` and `s̄` of the same length are *unifiable*, written
//! `r̄ ⇑ s̄`, if there exists a valuation `v` of nulls with `v(r̄) = v(s̄)`.
//!
//! For Codd nulls (no repeated null ids) this is a position-wise check: two
//! values unify unless both are constants and differ. With *marked* nulls a
//! repeated null may be forced to take two different constants, so a
//! consistency check is needed; a `Unifier` implements it with a union-find
//! over null ids carrying an optional constant binding per class.

use crate::data::null::NullId;
use crate::data::tuple::Tuple;
use crate::data::value::Value;
use std::collections::HashMap;

/// Incremental unifier for marked nulls.
///
/// Constraints of the form "value `a` must equal value `b`" are added with
/// [`Unifier::require_equal`]; the unifier tracks, per equivalence class of
/// nulls, the unique constant the class is bound to (if any), and reports
/// failure as soon as two distinct constants would be identified.
#[derive(Debug, Default, Clone)]
pub(crate) struct Unifier {
    parent: HashMap<NullId, NullId>,
    binding: HashMap<NullId, Value>,
    failed: bool,
}

impl Unifier {
    /// Create an empty unifier.
    pub fn new() -> Self {
        Self::default()
    }

    fn find(&mut self, id: NullId) -> NullId {
        let mut root = id;
        while let Some(&p) = self.parent.get(&root) {
            if p == root {
                break;
            }
            root = p;
        }
        // Path compression.
        let mut cur = id;
        while let Some(&p) = self.parent.get(&cur) {
            if p == root {
                break;
            }
            self.parent.insert(cur, root);
            cur = p;
        }
        root
    }

    fn ensure(&mut self, id: NullId) -> NullId {
        self.parent.entry(id).or_insert(id);
        self.find(id)
    }

    fn bind(&mut self, id: NullId, c: &Value) {
        let root = self.ensure(id);
        match self.binding.get(&root) {
            Some(existing) => {
                if !crate::data::compare::sql_eq(existing, c).is_true() {
                    self.failed = true;
                }
            }
            None => {
                self.binding.insert(root, c.clone());
            }
        }
    }

    fn union(&mut self, a: NullId, b: NullId) {
        let ra = self.ensure(a);
        let rb = self.ensure(b);
        if ra == rb {
            return;
        }
        let bind_a = self.binding.get(&ra).cloned();
        let bind_b = self.binding.get(&rb).cloned();
        self.parent.insert(rb, ra);
        match (bind_a, bind_b) {
            (Some(x), Some(y)) if !crate::data::compare::sql_eq(&x, &y).is_true() => {
                self.failed = true;
            }
            (None, Some(y)) => {
                self.binding.insert(ra, y);
            }
            _ => {}
        }
    }

    /// Add the constraint that `a` and `b` denote the same value. Returns the
    /// current consistency status.
    pub(crate) fn require_equal(&mut self, a: &Value, b: &Value) -> bool {
        if self.failed {
            return false;
        }
        match (a, b) {
            (Value::Null(x), Value::Null(y)) => self.union(*x, *y),
            (Value::Null(x), c) => self.bind(*x, c),
            (c, Value::Null(y)) => self.bind(*y, c),
            (x, y) => {
                if !crate::data::compare::sql_eq(x, y).is_true() {
                    self.failed = true;
                }
            }
        }
        !self.failed
    }
}

/// Full tuple unifiability `r̄ ⇑ s̄` under marked-null semantics: there exists
/// a valuation making the tuples equal. Tuples of different lengths never
/// unify.
pub(crate) fn tuples_unify(r: &Tuple, s: &Tuple) -> bool {
    if r.len() != s.len() {
        return false;
    }
    let mut u = Unifier::new();
    for (a, b) in r.values().iter().zip(s.values()) {
        if !u.require_equal(a, b) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::null::NullId;

    fn n(i: u64) -> Value {
        Value::Null(NullId(i))
    }

    fn t(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals)
    }

    fn values_unify(a: &Value, b: &Value) -> bool {
        tuples_unify(&t(vec![a.clone()]), &t(vec![b.clone()]))
    }

    #[test]
    fn constants_unify_iff_equal() {
        assert!(values_unify(&Value::Int(1), &Value::Int(1)));
        assert!(!values_unify(&Value::Int(1), &Value::Int(2)));
        assert!(values_unify(&n(1), &Value::Int(2)));
        assert!(values_unify(&n(1), &n(2)));
    }

    #[test]
    fn codd_tuples_unify_positionwise() {
        let a = t(vec![Value::Int(1), n(1)]);
        let b = t(vec![n(2), Value::Int(3)]);
        assert!(tuples_unify(&a, &b));
        let c = t(vec![Value::Int(2), n(3)]);
        assert!(!tuples_unify(&a, &c));
    }

    #[test]
    fn marked_null_repetition_blocks_unification() {
        // r = (⊥1, ⊥1), s = (1, 2): position-wise OK but no single valuation works.
        let r = t(vec![n(1), n(1)]);
        let s = t(vec![Value::Int(1), Value::Int(2)]);
        assert!(!tuples_unify(&r, &s));
        // With equal constants it unifies.
        let s2 = t(vec![Value::Int(5), Value::Int(5)]);
        assert!(tuples_unify(&r, &s2));
    }

    #[test]
    fn transitive_binding_conflict() {
        // r = (⊥1, ⊥2, ⊥1), s = (1, ⊥1... ) chain forcing ⊥1=1 and ⊥1=2 must fail.
        let r = t(vec![n(1), n(1)]);
        let s = t(vec![Value::Int(1), n(2)]);
        // ⊥1=1 and ⊥1=⊥2: consistent (⊥2 := 1).
        assert!(tuples_unify(&r, &s));

        let r2 = t(vec![n(1), n(2), n(2)]);
        let s2 = t(vec![Value::Int(1), n(1), Value::Int(2)]);
        // ⊥1=1, ⊥2=⊥1 (so ⊥2=1), ⊥2=2 → contradiction.
        assert!(!tuples_unify(&r2, &s2));
    }

    #[test]
    fn different_arity_never_unifies() {
        let a = t(vec![Value::Int(1)]);
        let b = t(vec![Value::Int(1), Value::Int(2)]);
        assert!(!tuples_unify(&a, &b));
    }

    #[test]
    fn unifier_is_symmetric_on_arguments() {
        let pairs = vec![(n(1), Value::Int(3)), (Value::Int(3), n(1)), (n(1), n(2))];
        for (a, b) in pairs {
            let mut u1 = Unifier::new();
            let mut u2 = Unifier::new();
            assert_eq!(u1.require_equal(&a, &b), u2.require_equal(&b, &a));
        }
    }

    #[test]
    fn binding_lookup() {
        // ⊥2 joins ⊥1's class and so its binding to 9; ⊥3 stays free.
        let mut u = Unifier::new();
        u.require_equal(&n(1), &Value::Int(9));
        u.require_equal(&n(2), &n(1));
        assert!(u.clone().require_equal(&n(2), &Value::Int(9)));
        assert!(!u.clone().require_equal(&n(2), &Value::Int(8)));
        assert!(u.require_equal(&n(3), &Value::Int(8)));
    }

    #[test]
    fn numeric_cross_type_unification() {
        // Decimal 1.00 and Int 1 are semantically equal constants.
        assert!(values_unify(&Value::Decimal(100), &Value::Int(1)));
        let mut u = Unifier::new();
        assert!(u.require_equal(&Value::Decimal(100), &Value::Int(1)));
    }
}

#[cfg(test)]
mod randomized_tests {
    //! Property-style checks on deterministic random tuples (the vendored
    //! `rand` shim replaces the original proptest strategies).

    use super::*;
    use crate::data::null::NullId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_value(rng: &mut StdRng) -> Value {
        match rng.gen_range(0..3u32) {
            0 => Value::Null(NullId(rng.gen_range(0..5u64))),
            1 => Value::Int(rng.gen_range(0..5i64)),
            _ => {
                let len = rng.gen_range(1..=2usize);
                let s: String =
                    (0..len).map(|_| char::from(b'a' + rng.gen_range(0..3u8))).collect();
                Value::str(s)
            }
        }
    }

    fn random_tuple(rng: &mut StdRng, len: usize) -> Tuple {
        Tuple::new((0..len).map(|_| random_value(rng)).collect())
    }

    #[test]
    fn unification_is_symmetric() {
        let mut rng = StdRng::seed_from_u64(0xA11CE);
        for _ in 0..500 {
            let a = random_tuple(&mut rng, 4);
            let b = random_tuple(&mut rng, 4);
            assert_eq!(tuples_unify(&a, &b), tuples_unify(&b, &a), "{a} vs {b}");
        }
    }

    #[test]
    fn unification_is_reflexive() {
        let mut rng = StdRng::seed_from_u64(0xB0B);
        for _ in 0..200 {
            let a = random_tuple(&mut rng, 4);
            assert!(tuples_unify(&a, &a), "{a}");
        }
    }

    #[test]
    fn marked_unification_implies_codd() {
        // The marked-null notion is strictly stronger than the position-wise
        // Codd check (it adds consistency).
        let positionwise = |r: &Tuple, s: &Tuple| {
            r.values().iter().zip(s.values()).all(|(a, b)| a.is_null() || b.is_null() || a == b)
        };
        let mut rng = StdRng::seed_from_u64(0xC0DD);
        let mut implications = 0usize;
        for _ in 0..500 {
            let a = random_tuple(&mut rng, 4);
            let b = random_tuple(&mut rng, 4);
            if tuples_unify(&a, &b) {
                implications += 1;
                assert!(positionwise(&a, &b), "{a} vs {b}");
            }
        }
        assert!(implications > 0, "the sample never exercised the implication");
    }

    #[test]
    fn ground_tuples_unify_iff_equal() {
        let mut rng = StdRng::seed_from_u64(0x6E0);
        for _ in 0..500 {
            let xs: Vec<i64> = (0..4).map(|_| rng.gen_range(0..5i64)).collect();
            let ys: Vec<i64> = (0..4).map(|_| rng.gen_range(0..5i64)).collect();
            let a = Tuple::new(xs.iter().copied().map(Value::Int).collect());
            let b = Tuple::new(ys.iter().copied().map(Value::Int).collect());
            assert_eq!(tuples_unify(&a, &b), xs == ys);
        }
    }
}
