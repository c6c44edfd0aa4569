//! Selection conditions.
//!
//! Conditions are positive/negative Boolean combinations of comparisons
//! between attributes and constants, the predicates `const(A)` / `null(A)`
//! (SQL's `IS NOT NULL` / `IS NULL`), `LIKE` patterns, `IN`-lists and
//! comparisons against black-box scalar subqueries (used for the aggregate
//! subquery of query Q2, exactly as the paper treats it).

use crate::algebra::expr::RaExpr;
use crate::data::compare::CmpOp;
use crate::data::Value;
use std::collections::BTreeSet;
use std::fmt;

/// One side of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum Operand {
    /// A column reference, possibly qualified (`"l1.l_suppkey"`).
    Col(String),
    /// A constant value.
    Const(Value),
    /// An uncorrelated scalar subquery, treated as an opaque constant `c` by
    /// the condition translations (paper, Section 7, "Translating additional
    /// features").
    Scalar(Box<RaExpr>),
}

impl Operand {
    /// The column name, if this operand is a column.
    pub(crate) fn as_col(&self) -> Option<&str> {
        match self {
            Operand::Col(c) => Some(c),
            _ => None,
        }
    }

    /// Whether the operand is a column reference.
    pub(crate) fn is_col(&self) -> bool {
        matches!(self, Operand::Col(_))
    }

    /// Apply a renaming function to column references.
    pub(crate) fn map_columns(&self, f: &mut impl FnMut(&str) -> String) -> Operand {
        match self {
            Operand::Col(c) => Operand::Col(f(c)),
            other => other.clone(),
        }
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Col(c) => write!(f, "{c}"),
            Operand::Const(v) => write!(f, "{v}"),
            Operand::Scalar(q) => write!(f, "({q})"),
        }
    }
}

/// A selection condition.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// Always true.
    True,
    /// Always false.
    False,
    /// Binary comparison `left op right`.
    Cmp {
        /// Left operand.
        left: Operand,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand.
        right: Operand,
    },
    /// `operand IS NULL` — the paper's `null(A)`.
    IsNull(Operand),
    /// `operand IS NOT NULL` — the paper's `const(A)`.
    IsNotNull(Operand),
    /// `operand [NOT] LIKE pattern`.
    Like {
        /// Matched operand.
        expr: Operand,
        /// SQL pattern with `%` and `_` wildcards.
        pattern: String,
        /// Whether the predicate is negated.
        negated: bool,
    },
    /// `operand [NOT] IN (v1, …, vn)` over a literal list.
    InList {
        /// Tested operand.
        expr: Operand,
        /// The literal values.
        list: Vec<Value>,
        /// Whether the predicate is negated.
        negated: bool,
    },
    /// Conjunction.
    And(Box<Condition>, Box<Condition>),
    /// Disjunction.
    Or(Box<Condition>, Box<Condition>),
    /// Negation.
    Not(Box<Condition>),
}

impl Condition {
    /// Conjunction of two conditions with trivial simplification.
    pub fn and(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::True, c) | (c, Condition::True) => c,
            (Condition::False, _) | (_, Condition::False) => Condition::False,
            (a, b) => Condition::And(Box::new(a), Box::new(b)),
        }
    }

    /// Disjunction of two conditions with trivial simplification.
    pub fn or(self, other: Condition) -> Condition {
        match (self, other) {
            (Condition::False, c) | (c, Condition::False) => c,
            (Condition::True, _) | (_, Condition::True) => Condition::True,
            (a, b) => Condition::Or(Box::new(a), Box::new(b)),
        }
    }

    /// Logical negation (not pushed inward; see `Condition::to_nnf`).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Condition {
        match self {
            Condition::True => Condition::False,
            Condition::False => Condition::True,
            Condition::Not(inner) => *inner,
            c => Condition::Not(Box::new(c)),
        }
    }

    /// Conjunction of an iterator of conditions.
    pub(crate) fn and_all(conds: impl IntoIterator<Item = Condition>) -> Condition {
        conds.into_iter().fold(Condition::True, |acc, c| acc.and(c))
    }

    /// Equality comparison between two columns.
    pub(crate) fn eq_cols(a: impl Into<String>, b: impl Into<String>) -> Condition {
        Condition::Cmp {
            left: Operand::Col(a.into()),
            op: CmpOp::Eq,
            right: Operand::Col(b.into()),
        }
    }

    /// Comparison between a column and a constant.
    pub(crate) fn cmp_const(col: impl Into<String>, op: CmpOp, value: Value) -> Condition {
        Condition::Cmp { left: Operand::Col(col.into()), op, right: Operand::Const(value) }
    }

    /// Push negations inward so that `Not` only remains around atoms that
    /// cannot be negated structurally (there are none in this language: every
    /// atom has a dual), producing negation normal form. The paper's
    /// translations assume selection conditions are "closed under negation,
    /// which can simply be propagated to atoms" (Section 2).
    pub(crate) fn to_nnf(&self) -> Condition {
        self.nnf(false)
    }

    fn nnf(&self, negate: bool) -> Condition {
        match self {
            Condition::True => {
                if negate {
                    Condition::False
                } else {
                    Condition::True
                }
            }
            Condition::False => {
                if negate {
                    Condition::True
                } else {
                    Condition::False
                }
            }
            Condition::Cmp { left, op, right } => Condition::Cmp {
                left: left.clone(),
                op: if negate { op.negate() } else { *op },
                right: right.clone(),
            },
            Condition::IsNull(x) => {
                if negate {
                    Condition::IsNotNull(x.clone())
                } else {
                    Condition::IsNull(x.clone())
                }
            }
            Condition::IsNotNull(x) => {
                if negate {
                    Condition::IsNull(x.clone())
                } else {
                    Condition::IsNotNull(x.clone())
                }
            }
            Condition::Like { expr, pattern, negated } => Condition::Like {
                expr: expr.clone(),
                pattern: pattern.clone(),
                negated: *negated != negate,
            },
            Condition::InList { expr, list, negated } => Condition::InList {
                expr: expr.clone(),
                list: list.clone(),
                negated: *negated != negate,
            },
            Condition::And(a, b) => {
                let (x, y) = (a.nnf(negate), b.nnf(negate));
                if negate {
                    x.or(y)
                } else {
                    x.and(y)
                }
            }
            Condition::Or(a, b) => {
                let (x, y) = (a.nnf(negate), b.nnf(negate));
                if negate {
                    x.and(y)
                } else {
                    x.or(y)
                }
            }
            Condition::Not(inner) => inner.nnf(!negate),
        }
    }

    /// Split a conjunction into its conjuncts (after flattening nested `And`s).
    pub fn conjuncts(&self) -> Vec<Condition> {
        match self {
            Condition::And(a, b) => {
                let mut out = a.conjuncts();
                out.extend(b.conjuncts());
                out
            }
            Condition::True => vec![],
            other => vec![other.clone()],
        }
    }

    /// Split a disjunction into its disjuncts (after flattening nested `Or`s).
    pub(crate) fn disjuncts(&self) -> Vec<Condition> {
        match self {
            Condition::Or(a, b) => {
                let mut out = a.disjuncts();
                out.extend(b.disjuncts());
                out
            }
            Condition::False => vec![],
            other => vec![other.clone()],
        }
    }

    /// Convert the condition to disjunctive normal form at the Boolean level
    /// (atoms untouched). Used by the OR-splitting rewrite of Section 7: a
    /// `NOT EXISTS (… WHERE φ)` with `φ = ∨ᵢ φᵢ` becomes a conjunction of
    /// `NOT EXISTS` blocks, one per disjunct.
    pub(crate) fn to_dnf(&self) -> Vec<Condition> {
        let nnf = self.to_nnf();
        Self::dnf_rec(&nnf)
    }

    fn dnf_rec(c: &Condition) -> Vec<Condition> {
        match c {
            Condition::Or(a, b) => {
                let mut out = Self::dnf_rec(a);
                out.extend(Self::dnf_rec(b));
                out
            }
            Condition::And(a, b) => {
                let left = Self::dnf_rec(a);
                let right = Self::dnf_rec(b);
                let mut out = Vec::with_capacity(left.len() * right.len());
                for l in &left {
                    for r in &right {
                        out.push(l.clone().and(r.clone()));
                    }
                }
                out
            }
            other => vec![other.clone()],
        }
    }

    /// The set of column names referenced by the condition (not including
    /// columns inside scalar subqueries, which are evaluated independently).
    pub fn columns(&self) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut BTreeSet<String>) {
        let mut add = |op: &Operand| {
            if let Operand::Col(c) = op {
                out.insert(c.clone());
            }
        };
        match self {
            Condition::True | Condition::False => {}
            Condition::Cmp { left, right, .. } => {
                add(left);
                add(right);
            }
            Condition::IsNull(x) | Condition::IsNotNull(x) => add(x),
            Condition::Like { expr, .. } => add(expr),
            Condition::InList { expr, .. } => add(expr),
            Condition::And(a, b) | Condition::Or(a, b) => {
                a.collect_columns(out);
                b.collect_columns(out);
            }
            Condition::Not(inner) => inner.collect_columns(out),
        }
    }

    /// Apply a renaming function to every column reference.
    pub(crate) fn map_columns(&self, f: &mut impl FnMut(&str) -> String) -> Condition {
        match self {
            Condition::True => Condition::True,
            Condition::False => Condition::False,
            Condition::Cmp { left, op, right } => {
                Condition::Cmp { left: left.map_columns(f), op: *op, right: right.map_columns(f) }
            }
            Condition::IsNull(x) => Condition::IsNull(x.map_columns(f)),
            Condition::IsNotNull(x) => Condition::IsNotNull(x.map_columns(f)),
            Condition::Like { expr, pattern, negated } => Condition::Like {
                expr: expr.map_columns(f),
                pattern: pattern.clone(),
                negated: *negated,
            },
            Condition::InList { expr, list, negated } => Condition::InList {
                expr: expr.map_columns(f),
                list: list.clone(),
                negated: *negated,
            },
            Condition::And(a, b) => a.map_columns(f).and(b.map_columns(f)),
            Condition::Or(a, b) => {
                Condition::Or(Box::new(a.map_columns(f)), Box::new(b.map_columns(f)))
            }
            Condition::Not(inner) => Condition::Not(Box::new(inner.map_columns(f))),
        }
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::True => write!(f, "TRUE"),
            Condition::False => write!(f, "FALSE"),
            Condition::Cmp { left, op, right } => write!(f, "{left} {op} {right}"),
            Condition::IsNull(x) => write!(f, "{x} IS NULL"),
            Condition::IsNotNull(x) => write!(f, "{x} IS NOT NULL"),
            Condition::Like { expr, pattern, negated } => {
                write!(f, "{expr} {}LIKE '{pattern}'", if *negated { "NOT " } else { "" })
            }
            Condition::InList { expr, list, negated } => {
                write!(f, "{expr} {}IN (", if *negated { "NOT " } else { "" })?;
                for (i, v) in list.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, ")")
            }
            Condition::And(a, b) => write!(f, "({a} AND {b})"),
            Condition::Or(a, b) => write!(f, "({a} OR {b})"),
            Condition::Not(inner) => write!(f, "NOT ({inner})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a_eq_b() -> Condition {
        Condition::eq_cols("a", "b")
    }

    fn b_neq_1() -> Condition {
        Condition::cmp_const("b", CmpOp::Neq, Value::Int(1))
    }

    #[test]
    fn and_or_simplification() {
        assert_eq!(Condition::True.and(a_eq_b()), a_eq_b());
        assert_eq!(Condition::False.and(a_eq_b()), Condition::False);
        assert_eq!(Condition::False.or(a_eq_b()), a_eq_b());
        assert_eq!(Condition::True.or(a_eq_b()), Condition::True);
    }

    #[test]
    fn nnf_propagates_to_atoms() {
        // ¬((A = B) ∨ (B ≠ 1)) ≡ (A ≠ B) ∧ (B = 1) — the paper's Section 2 example.
        let c = a_eq_b().or(b_neq_1()).not();
        let nnf = c.to_nnf();
        let expected = Condition::Cmp {
            left: Operand::Col("a".into()),
            op: CmpOp::Neq,
            right: Operand::Col("b".into()),
        }
        .and(Condition::cmp_const("b", CmpOp::Eq, Value::Int(1)));
        assert_eq!(nnf, expected);
    }

    #[test]
    fn nnf_is_involutive_on_double_negation() {
        let c = a_eq_b().and(b_neq_1());
        assert_eq!(c.clone().not().not().to_nnf(), c.to_nnf());
    }

    #[test]
    fn nnf_flips_null_predicates_and_like() {
        let c = Condition::IsNull(Operand::Col("x".into())).not();
        assert_eq!(c.to_nnf(), Condition::IsNotNull(Operand::Col("x".into())));
        let l = Condition::Like {
            expr: Operand::Col("p".into()),
            pattern: "%red%".into(),
            negated: false,
        }
        .not();
        assert_eq!(
            l.to_nnf(),
            Condition::Like {
                expr: Operand::Col("p".into()),
                pattern: "%red%".into(),
                negated: true
            }
        );
    }

    #[test]
    fn conjuncts_and_disjuncts_flatten() {
        let c = a_eq_b().and(b_neq_1()).and(Condition::IsNull(Operand::Col("x".into())));
        assert_eq!(c.conjuncts().len(), 3);
        let d = a_eq_b().or(b_neq_1()).or(Condition::True);
        // True absorbs the disjunction
        assert_eq!(d, Condition::True);
    }

    #[test]
    fn dnf_distributes() {
        // (p ∨ q) ∧ r → [p∧r, q∧r]
        let p = Condition::eq_cols("a", "b");
        let q = Condition::IsNull(Operand::Col("a".into()));
        let r = Condition::eq_cols("c", "d");
        let c = p.clone().or(q.clone()).and(r.clone());
        let dnf = c.to_dnf();
        assert_eq!(dnf.len(), 2);
        assert_eq!(dnf[0], p.and(r.clone()));
        assert_eq!(dnf[1], q.and(r));
    }

    #[test]
    fn dnf_of_negated_conjunction() {
        // ¬(a=b ∧ c=d) → [a≠b, c≠d]
        let c = Condition::eq_cols("a", "b").and(Condition::eq_cols("c", "d")).not();
        let dnf = c.to_dnf();
        assert_eq!(dnf.len(), 2);
    }

    #[test]
    fn columns_collection_and_renaming() {
        let c = a_eq_b().and(Condition::cmp_const("q.x", CmpOp::Gt, Value::Int(3)));
        let cols = c.columns();
        assert!(cols.contains("a") && cols.contains("b") && cols.contains("q.x"));
        let renamed = c.map_columns(&mut |s| format!("t.{s}"));
        assert!(renamed.columns().contains("t.q.x"));
    }

    #[test]
    fn display_renders_sql_like_syntax() {
        let c = a_eq_b().and(Condition::IsNull(Operand::Col("x".into())));
        assert_eq!(c.to_string(), "(a = b AND x IS NULL)");
        let i = Condition::InList {
            expr: Operand::Col("n".into()),
            list: vec![Value::Int(1), Value::Int(2)],
            negated: true,
        };
        assert_eq!(i.to_string(), "n NOT IN (1, 2)");
    }
}
