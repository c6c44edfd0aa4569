//! Extraction of hash-join keys from join conditions, and the one rule that
//! says which input of a join a column belongs to.
//!
//! **Side attribution.** A column belongs to the side its position falls on
//! when the name is resolved against `left ++ right` — exact name first,
//! unique base name second — which is exactly how the engine's compiler
//! resolves the condition of the pair. A name that is ambiguous there
//! belongs to neither side. Asking each input schema separately would get
//! aliased self-joins wrong: `l1.l_orderkey` resolves in the schema of
//! `lineitem AS l2` too, through its base name. `JoinSides` is that rule;
//! the key extractor and the predicate-pushdown pass both go through it.
//!
//! **What is a key.** Conjunct by conjunct:
//!
//! * `x = y` with `x` and `y` on opposite sides is a *plain* key: the hash
//!   table decides it.
//! * `x = y OR x IS NULL`, `x = y OR y IS NULL` and
//!   `x = y OR x IS NULL OR y IS NULL` (any nesting and order of the `OR`s,
//!   `x` and `y` on opposite sides) are *null-aware* keys — the shape the
//!   certain-answer translation gives every equality (paper, Section 7). The
//!   key pair carries a [`NullOk`] saying which side's `NULL` satisfies it;
//!   the engine hashes the rows whose flagged columns are non-null and
//!   checks the few rows with a `NULL` there against the other side by the
//!   full condition.
//! * Everything else stays in the *residual*: same-side and ambiguous
//!   equalities, other comparisons, and a disjunction that mentions anything
//!   but the one equality and `IS NULL` tests on its two columns
//!   (`x = y OR z IS NULL` is a nested loop).

use crate::algebra::condition::{Condition, Operand};
use crate::data::compare::CmpOp;
use crate::data::schema::resolve;
use crate::data::Schema;

/// One input of a join-like operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The left (probe / preserved) input.
    Left,
    /// The right (build / inner) input.
    Right,
}

/// The schemas of a join-like operator's two inputs: the rule for which side
/// a column belongs to.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JoinSides<'a> {
    left: &'a Schema,
    right: &'a Schema,
}

impl<'a> JoinSides<'a> {
    /// The sides of a join over the given input schemas.
    pub fn new(left: &'a Schema, right: &'a Schema) -> Self {
        JoinSides { left, right }
    }

    /// The side `column` belongs to and its position in `left ++ right`;
    /// `None` when the name is unknown or ambiguous there.
    fn locate(&self, column: &str) -> Option<(Side, usize)> {
        let pos = resolve(self.left.attrs().iter().chain(self.right.attrs()), column)?;
        Some((if pos < self.left.arity() { Side::Left } else { Side::Right }, pos))
    }

    /// The side `column` belongs to; `None` when the name is unknown or
    /// ambiguous in `left ++ right`.
    pub(crate) fn side_of(&self, column: &str) -> Option<Side> {
        self.locate(column).map(|(side, _)| side)
    }

    /// The side *every* column of `condition` belongs to; `None` when it
    /// reads both sides, no column at all, or a column of neither side.
    pub(crate) fn only_side(&self, condition: &Condition) -> Option<Side> {
        let mut sides = condition.columns().into_iter().map(|c| self.side_of(&c));
        let first = sides.next()??;
        sides.all(|s| s == Some(first)).then_some(first)
    }
}

/// Which side's `NULL` satisfies a key pair on its own: `left` for
/// `x = y OR x IS NULL`, `right` for `x = y OR y IS NULL`, neither for a
/// plain `x = y`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NullOk {
    /// A `NULL` in the left key column matches every right row.
    pub left: bool,
    /// A `NULL` in the right key column matches every left row.
    pub right: bool,
}

impl NullOk {
    /// Whether either side's `NULL` satisfies the key (a null-aware key).
    pub fn any(self) -> bool {
        self.left || self.right
    }
}

/// The result of splitting a join condition.
#[derive(Debug, Clone)]
pub(crate) struct EquiSplit {
    /// Column names on the left side, positionally paired with `right_keys`.
    pub left_keys: Vec<String>,
    /// Column names on the right side.
    pub right_keys: Vec<String>,
    /// Per key pair, which side's `NULL` satisfies it (all `false` for a
    /// plain equality).
    pub null_ok: Vec<NullOk>,
    /// Conjuncts that could not be turned into hash keys.
    pub residual: Condition,
}

impl EquiSplit {
    /// Whether any hash keys — plain or null-aware — were found.
    pub(crate) fn has_keys(&self) -> bool {
        !self.left_keys.is_empty()
    }

    /// Whether any *plain* equality key was found: one the hash table
    /// decides alone, whatever the nulls.
    pub(crate) fn has_plain_keys(&self) -> bool {
        self.null_ok.iter().any(|n| !n.any())
    }
}

/// Split a condition into hashable key pairs and a residual, relative to the
/// given left/right schemas.
pub(crate) fn split_equi(condition: &Condition, left: &Schema, right: &Schema) -> EquiSplit {
    let sides = JoinSides::new(left, right);
    let mut split = EquiSplit {
        left_keys: Vec::new(),
        right_keys: Vec::new(),
        null_ok: Vec::new(),
        residual: Condition::True,
    };
    for conjunct in condition.conjuncts() {
        match key_of(&conjunct, &sides) {
            Some((l, r, null_ok)) => {
                split.left_keys.push(l);
                split.right_keys.push(r);
                split.null_ok.push(null_ok);
            }
            None => split.residual = split.residual.and(conjunct),
        }
    }
    split
}

/// The `(left column, right column, null flags)` of a conjunct that is a
/// key: one equality between columns of opposite sides, alone or in a
/// disjunction with `IS NULL` tests on those same two columns.
fn key_of(conjunct: &Condition, sides: &JoinSides<'_>) -> Option<(String, String, NullOk)> {
    let mut key = None;
    let mut null_tests = Vec::new();
    for disjunct in conjunct.disjuncts() {
        match disjunct {
            Condition::Cmp { left: Operand::Col(x), op: CmpOp::Eq, right: Operand::Col(y) }
                if key.is_none() =>
            {
                key = Some(match (sides.locate(&x)?, sides.locate(&y)?) {
                    ((Side::Left, lp), (Side::Right, rp)) => ((x, lp), (y, rp)),
                    ((Side::Right, rp), (Side::Left, lp)) => ((y, lp), (x, rp)),
                    _ => return None,
                });
            }
            Condition::IsNull(Operand::Col(c)) => null_tests.push(sides.locate(&c)?.1),
            _ => return None,
        }
    }
    let ((l, lp), (r, rp)) = key?;
    let mut null_ok = NullOk::default();
    for pos in null_tests {
        match pos {
            p if p == lp => null_ok.left = true,
            p if p == rp => null_ok.right = true,
            _ => return None,
        }
    }
    Some((l, r, null_ok))
}

/// Whether a condition references any column of the given schema (used to
/// detect *uncorrelated* `EXISTS` / `NOT EXISTS` subqueries).
pub(crate) fn references_schema(condition: &Condition, schema: &Schema) -> bool {
    condition.columns().iter().any(|c| schema.contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{eq, gt, is_null, neq};

    fn schemas() -> (Schema, Schema) {
        (
            Schema::of_names(&["o_orderkey", "o_custkey"]),
            Schema::of_names(&["l_orderkey", "l_suppkey"]),
        )
    }

    /// Two aliases of one table, as a self-join sees them.
    fn aliases() -> (Schema, Schema) {
        let t = Schema::of_names(&["k", "s"]);
        (t.qualify("l1"), t.qualify("l2"))
    }

    fn flags(left: bool, right: bool) -> NullOk {
        NullOk { left, right }
    }

    #[test]
    fn plain_equality_becomes_a_key() {
        let (l, r) = schemas();
        let split = split_equi(&eq("l_orderkey", "o_orderkey"), &l, &r);
        assert_eq!(split.left_keys, vec!["o_orderkey"]);
        assert_eq!(split.right_keys, vec!["l_orderkey"]);
        assert_eq!(split.null_ok, vec![NullOk::default()]);
        assert!(split.has_plain_keys());
        assert_eq!(split.residual, Condition::True);
    }

    #[test]
    fn a_disjunct_on_another_column_blocks_hashing() {
        let (l, r) = schemas();
        // `x = y OR z IS NULL`: `z` is neither key column.
        let cond = eq("l_orderkey", "o_orderkey").or(is_null("l_suppkey"));
        let split = split_equi(&cond, &l, &r);
        assert!(!split.has_keys());
        assert_eq!(split.residual, cond);
        // Nor does anything but an `IS NULL` test make a key.
        let cond = eq("l_orderkey", "o_orderkey").or(neq("l_orderkey", "o_custkey"));
        assert!(!split_equi(&cond, &l, &r).has_keys());
        let two_equalities = eq("l_orderkey", "o_orderkey").or(eq("l_suppkey", "o_custkey"));
        assert!(!split_equi(&two_equalities, &l, &r).has_keys());
    }

    #[test]
    fn null_tests_on_the_key_columns_make_a_null_aware_key() {
        let (l, r) = schemas();
        let key = || eq("l_orderkey", "o_orderkey");
        for (cond, expected) in [
            (key().or(is_null("l_orderkey")), flags(false, true)),
            (key().or(is_null("o_orderkey")), flags(true, false)),
            (key().or(is_null("o_orderkey")).or(is_null("l_orderkey")), flags(true, true)),
            // Any order and nesting of the ORs.
            (is_null("l_orderkey").or(key().or(is_null("o_orderkey"))), flags(true, true)),
            (is_null("o_orderkey").or(key()), flags(true, false)),
        ] {
            let split = split_equi(&cond, &l, &r);
            assert_eq!(split.left_keys, vec!["o_orderkey"], "{cond}");
            assert_eq!(split.right_keys, vec!["l_orderkey"], "{cond}");
            assert_eq!(split.null_ok, vec![expected], "{cond}");
            assert!(split.has_keys() && !split.has_plain_keys(), "{cond}");
            assert_eq!(split.residual, Condition::True, "{cond}");
        }
    }

    #[test]
    fn mixed_condition_splits_cleanly() {
        let (l, r) = schemas();
        let cond = eq("l_orderkey", "o_orderkey")
            .and(neq("l_suppkey", "o_custkey").or(is_null("l_suppkey")));
        let split = split_equi(&cond, &l, &r);
        assert!(split.has_plain_keys());
        assert!(split.residual.to_string().contains("IS NULL"));
        // A plain and a null-aware key side by side keep their own flags.
        let cond = eq("l_orderkey", "o_orderkey")
            .and(eq("o_custkey", "l_suppkey").or(is_null("l_suppkey")));
        let split = split_equi(&cond, &l, &r);
        assert_eq!(split.left_keys, vec!["o_orderkey", "o_custkey"]);
        assert_eq!(split.null_ok, vec![flags(false, false), flags(false, true)]);
        assert!(split.has_plain_keys());
    }

    #[test]
    fn same_side_equality_stays_residual() {
        let (l, r) = schemas();
        let split = split_equi(&eq("o_orderkey", "o_custkey"), &l, &r);
        assert!(!split.has_keys());
        let split2 = split_equi(&eq("l_orderkey", "l_suppkey"), &l, &r);
        assert!(!split2.has_keys());
    }

    #[test]
    fn aliased_self_join_yields_keys_and_residual() {
        // Q1's shape: each qualified name also resolves in the *other*
        // alias's schema through its base name; the position in the
        // concatenated schema says where it really lives.
        let (l1, l2) = aliases();
        let cond = eq("l2.k", "l1.k").and(neq("l2.s", "l1.s"));
        let split = split_equi(&cond, &l1, &l2);
        assert_eq!(split.left_keys, vec!["l1.k"]);
        assert_eq!(split.right_keys, vec!["l2.k"]);
        assert_eq!(split.residual, neq("l2.s", "l1.s"));
        // An unqualified name is ambiguous over the two aliases: neither
        // side, so the equality stays residual.
        let split = split_equi(&eq("k", "l2.k"), &l1, &l2);
        assert!(!split.has_keys());
        assert_eq!(split.residual, eq("k", "l2.k"));
    }

    #[test]
    fn columns_belong_to_the_side_their_position_falls_on() {
        let (l1, l2) = aliases();
        let sides = JoinSides::new(&l1, &l2);
        assert_eq!(sides.side_of("l1.k"), Some(Side::Left));
        assert_eq!(sides.side_of("l2.k"), Some(Side::Right));
        assert_eq!(sides.side_of("k"), None, "ambiguous");
        assert_eq!(sides.side_of("nope"), None, "unknown");
        assert_eq!(sides.only_side(&gt("l2.k", "l2.s")), Some(Side::Right));
        assert_eq!(sides.only_side(&gt("l2.k", "l1.s")), None, "reads both sides");
        assert_eq!(sides.only_side(&gt("l2.k", "s")), None, "reads an ambiguous name");
        assert_eq!(sides.only_side(&Condition::True), None, "reads no column");
        // Unqualified names over distinct tables resolve by base name.
        let (o, l) = schemas();
        assert_eq!(JoinSides::new(&o.qualify("o"), &l).side_of("o_custkey"), Some(Side::Left));
    }

    #[test]
    fn correlation_detection() {
        let (l, r) = schemas();
        assert!(references_schema(&eq("l_orderkey", "o_orderkey"), &l));
        assert!(!references_schema(&is_null("l_suppkey"), &l));
        assert!(references_schema(&is_null("l_suppkey"), &r));
    }
}
