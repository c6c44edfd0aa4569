//! SQL's three-valued logic (3VL).
//!
//! Comparisons involving nulls evaluate to `Truth::Unknown`; the connectives
//! follow Kleene's strong logic exactly as described in Section 2 of the paper
//! (`¬u = u`, `u ∧ t = u`, `u ∧ f = f`, dually for `∨`). A `WHERE` clause
//! keeps a row only when its condition evaluates to `Truth::True`.

use std::fmt;
use std::ops::{BitAnd, BitOr, Not};

/// A three-valued truth value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) enum Truth {
    /// Definitely false.
    False,
    /// Unknown (at least one operand was a null).
    Unknown,
    /// Definitely true.
    True,
}

impl Truth {
    /// Build a truth value from a Boolean.
    pub(crate) fn from_bool(b: bool) -> Truth {
        if b {
            Truth::True
        } else {
            Truth::False
        }
    }

    /// `true` iff the value is [`Truth::True`] — this is the test SQL applies
    /// to `WHERE` conditions ("unknown" rows are filtered out).
    pub(crate) fn is_true(self) -> bool {
        self == Truth::True
    }

    /// `true` iff the value is [`Truth::False`].
    pub(crate) fn is_false(self) -> bool {
        self == Truth::False
    }

    /// `true` iff the value is [`Truth::Unknown`].
    pub(crate) fn is_unknown(self) -> bool {
        self == Truth::Unknown
    }

    /// Three-valued conjunction.
    pub fn and(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (False, _) | (_, False) => False,
            (True, True) => True,
            _ => Unknown,
        }
    }

    /// Three-valued disjunction.
    pub fn or(self, other: Truth) -> Truth {
        use Truth::*;
        match (self, other) {
            (True, _) | (_, True) => True,
            (False, False) => False,
            _ => Unknown,
        }
    }

    /// Three-valued negation.
    pub(crate) fn negate(self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Unknown => Truth::Unknown,
        }
    }

    /// Fold a disjunction over an iterator, short-circuiting on `True`.
    pub fn any(iter: impl IntoIterator<Item = Truth>) -> Truth {
        let mut acc = Truth::False;
        for t in iter {
            acc = acc.or(t);
            if acc == Truth::True {
                return Truth::True;
            }
        }
        acc
    }
}

impl Not for Truth {
    type Output = Truth;
    fn not(self) -> Truth {
        self.negate()
    }
}

impl BitAnd for Truth {
    type Output = Truth;
    fn bitand(self, rhs: Truth) -> Truth {
        self.and(rhs)
    }
}

impl BitOr for Truth {
    type Output = Truth;
    fn bitor(self, rhs: Truth) -> Truth {
        self.or(rhs)
    }
}

impl From<bool> for Truth {
    fn from(b: bool) -> Truth {
        Truth::from_bool(b)
    }
}

impl fmt::Display for Truth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Truth::True => "true",
            Truth::False => "false",
            Truth::Unknown => "unknown",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::Truth::*;
    use super::*;

    const ALL: [Truth; 3] = [False, Unknown, True];

    #[test]
    fn kleene_and_table() {
        assert_eq!(True.and(True), True);
        assert_eq!(True.and(Unknown), Unknown);
        assert_eq!(Unknown.and(Unknown), Unknown);
        assert_eq!(Unknown.and(False), False);
        assert_eq!(False.and(False), False);
        assert_eq!(False.and(True), False);
    }

    #[test]
    fn kleene_or_table() {
        assert_eq!(False.or(False), False);
        assert_eq!(False.or(Unknown), Unknown);
        assert_eq!(Unknown.or(Unknown), Unknown);
        assert_eq!(Unknown.or(True), True);
        assert_eq!(True.or(True), True);
    }

    #[test]
    fn negation_table() {
        assert_eq!(!True, False);
        assert_eq!(!False, True);
        assert_eq!(!Unknown, Unknown);
    }

    #[test]
    fn de_morgan_holds() {
        for a in ALL {
            for b in ALL {
                assert_eq!(!(a.and(b)), (!a).or(!b));
                assert_eq!(!(a.or(b)), (!a).and(!b));
            }
        }
    }

    #[test]
    fn connectives_commute_and_associate() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a.and(b), b.and(a));
                assert_eq!(a.or(b), b.or(a));
                for c in ALL {
                    assert_eq!(a.and(b).and(c), a.and(b.and(c)));
                    assert_eq!(a.or(b).or(c), a.or(b.or(c)));
                }
            }
        }
    }

    #[test]
    fn all_and_any_fold() {
        let all = |v: &[Truth]| v.iter().fold(True, |acc, &t| acc.and(t));
        assert_eq!(all(&[True, True, True]), True);
        assert_eq!(all(&[True, Unknown]), Unknown);
        assert_eq!(all(&[Unknown, False]), False);
        assert_eq!(all(&[]), True);
        assert_eq!(Truth::any([False, Unknown]), Unknown);
        assert_eq!(Truth::any([False, True]), True);
        assert_eq!(Truth::any(std::iter::empty()), False);
    }

    #[test]
    fn operators_match_methods() {
        for a in ALL {
            for b in ALL {
                assert_eq!(a & b, a.and(b));
                assert_eq!(a | b, a.or(b));
            }
        }
    }
}
