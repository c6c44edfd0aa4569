//! OR-splitting (paper, Section 7), guarded by hashability.
//!
//! After the certain-answer translation, join conditions inside `NOT EXISTS`
//! subqueries look like `(A = B OR A IS NULL) ∧ …` — the disjunction hides
//! the equality from the hash-join key extractor and the physical plan
//! degenerates to nested loops. Splitting on the disjuncts restores plain
//! equalities per branch:
//!
//! * anti-joins: `l ▷_{φ1 ∨ … ∨ φk} r → ((l ▷_{φ1} r) ▷_{φ2} r) … ▷_{φk} r`
//!   (a tuple survives iff it has no match under any disjunct);
//! * theta-joins: `l ⋈_{φ1 ∨ … ∨ φk} r → (l ⋈_{φ1} r) ∪ … ∪ (l ⋈_{φk} r)`
//!   (equivalent under set semantics — the union/"view" form the paper uses
//!   for Q⁺4).
//!
//! Splitting unconditionally can *pessimize*: a DNF disjunct with no
//! extractable equality still runs as a nested loop, so a union/chain with
//! several keyless branches multiplies the quadratic work the rewrite was
//! supposed to remove. Both passes therefore split only when the unsplit
//! condition is unhashable and the split branches actually hash — every
//! branch for a join (each union branch rescans both inputs), all but at
//! most one for an anti-join chain (hashable branches run first and shrink
//! the left side before the lone nested-loop step).

use crate::algebra::condition::Condition;
use crate::algebra::expr::RaExpr;
use crate::algebra::schema_infer::{output_schema, Catalog};
use crate::plan::equi::split_equi;
use crate::Result;

/// Most disjuncts a condition may have and still be split (prevents
/// exponential blow-up).
const MAX_SPLIT: usize = 16;

/// The disjuncts of a condition, when splitting stands a chance of paying
/// off: the unsplit condition extracts no hash keys, the disjunct count is
/// within bounds, and at least one disjunct does extract keys. Returns the
/// disjuncts reordered hashable-first, plus the number of keyless ones.
fn splittable_disjuncts(
    condition: &Condition,
    left: &RaExpr,
    right: &RaExpr,
    catalog: &dyn Catalog,
) -> Result<Option<(Vec<Condition>, usize)>> {
    let disjuncts = condition.to_dnf();
    if disjuncts.len() < 2 || disjuncts.len() > MAX_SPLIT {
        return Ok(None);
    }
    let l_schema = output_schema(left, catalog)?;
    let r_schema = output_schema(right, catalog)?;
    if split_equi(condition, &l_schema, &r_schema).has_plain_keys() {
        // Already hash-joinable with a residual: splitting only adds passes.
        return Ok(None);
    }
    let (keyed, keyless): (Vec<Condition>, Vec<Condition>) =
        disjuncts.into_iter().partition(|d| split_equi(d, &l_schema, &r_schema).has_keys());
    if keyed.is_empty() {
        return Ok(None);
    }
    let keyless_count = keyless.len();
    let mut ordered = keyed;
    ordered.extend(keyless);
    Ok(Some((ordered, keyless_count)))
}

/// OR-splitting of anti-joins: split into a chain only when the unsplit
/// condition is unhashable and at most one branch stays keyless (hashable
/// branches run first, shrinking the left side).
pub(crate) fn split_or_antijoin(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    match expr {
        RaExpr::AntiJoin { left, right, condition } => {
            let left = split_or_antijoin(left, catalog)?;
            let right = split_or_antijoin(right, catalog)?;
            match splittable_disjuncts(condition, &left, &right, catalog)? {
                Some((disjuncts, keyless)) if keyless <= 1 => {
                    let mut out = left;
                    for d in disjuncts {
                        out = out.anti_join(right.clone(), d);
                    }
                    Ok(out)
                }
                _ => Ok(left.anti_join(right, condition.clone())),
            }
        }
        other => other.map_children(&mut |c| split_or_antijoin(c, catalog)),
    }
}

/// OR-splitting of joins into unions: split only when the unsplit condition
/// is unhashable and **every** branch hashes (each union branch rescans both
/// inputs, so a single keyless branch already costs as much as not splitting
/// at all).
pub(crate) fn split_or_join(expr: &RaExpr, catalog: &dyn Catalog) -> Result<RaExpr> {
    match expr {
        RaExpr::Join { left, right, condition } => {
            let left = split_or_join(left, catalog)?;
            let right = split_or_join(right, catalog)?;
            match splittable_disjuncts(condition, &left, &right, catalog)? {
                Some((disjuncts, 0)) => {
                    let mut iter = disjuncts.into_iter();
                    let first = left.clone().join(right.clone(), iter.next().expect("non-empty"));
                    Ok(iter.fold(first, |acc, d| acc.union(left.clone().join(right.clone(), d))))
                }
                _ => Ok(left.join(right, condition.clone())),
            }
        }
        other => other.map_children(&mut |c| split_or_join(c, catalog)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algebra::builder::{eq, eq_const, is_null, neq};
    use crate::algebra::eval::eval;
    use crate::algebra::NullSemantics;
    use crate::data::builder::rel;
    use crate::data::null::NullId;
    use crate::data::{Database, Value};

    fn db() -> Database {
        let mut db = Database::new();
        db.insert_relation(
            "r",
            rel(
                &["a", "b"],
                vec![
                    vec![Value::Int(1), Value::Int(10)],
                    vec![Value::Int(2), Value::Null(NullId(1))],
                ],
            ),
        );
        db.insert_relation(
            "s",
            rel(
                &["c", "d"],
                vec![
                    vec![Value::Int(1), Value::Null(NullId(2))],
                    vec![Value::Int(3), Value::Int(30)],
                ],
            ),
        );
        db
    }

    #[test]
    fn max_split_bounds_the_expansion() {
        let db = db();
        // Every disjunct `a = c AND b = k` hashes; one more than MAX_SPLIT of
        // them is left alone.
        let wide = |n: i64| {
            (1..n).fold(eq("a", "c").and(eq_const("b", 0)), |acc, k| {
                acc.or(eq("a", "c").and(eq_const("b", k)))
            })
        };
        let at = RaExpr::relation("r").join(RaExpr::relation("s"), wide(MAX_SPLIT as i64));
        assert!(matches!(split_or_join(&at, &db).unwrap(), RaExpr::Union { .. }));
        let over = MAX_SPLIT as i64 + 1;
        let j = RaExpr::relation("r").join(RaExpr::relation("s"), wide(over));
        assert_eq!(split_or_join(&j, &db).unwrap(), j);
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), wide(over));
        assert_eq!(split_or_antijoin(&q, &db).unwrap(), q);
    }

    #[test]
    fn guarded_antijoin_split_requires_hashable_branches() {
        let db = db();
        // eq ∨ isnull: unsplit keyless, one keyless branch → split, hashable
        // branch first.
        let q =
            RaExpr::relation("r").anti_join(RaExpr::relation("s"), is_null("c").or(eq("a", "c")));
        let split = split_or_antijoin(&q, &db).unwrap();
        match &split {
            RaExpr::AntiJoin { left, condition, .. } => {
                // Outermost step is the keyless isnull branch; the hashable
                // eq branch ran first (inner).
                assert_eq!(condition, &is_null("c"));
                assert!(
                    matches!(**left, RaExpr::AntiJoin { ref condition, .. } if *condition == eq("a", "c"))
                );
            }
            other => panic!("expected chain, got {other}"),
        }
        let a = eval(&q, &db, NullSemantics::Sql).unwrap().sorted();
        let b = eval(&split, &db, NullSemantics::Sql).unwrap().sorted();
        assert_eq!(a.tuples(), b.tuples());

        // Two keyless branches: splitting would multiply nested-loop work.
        let q = RaExpr::relation("r")
            .anti_join(RaExpr::relation("s"), is_null("c").or(is_null("d")).or(eq("a", "c")));
        assert_eq!(split_or_antijoin(&q, &db).unwrap(), q);

        // Already hashable with residual: no split either.
        let q = RaExpr::relation("r")
            .anti_join(RaExpr::relation("s"), eq("a", "c").and(neq("b", "d").or(is_null("d"))));
        assert_eq!(split_or_antijoin(&q, &db).unwrap(), q);
    }

    #[test]
    fn guarded_join_split_requires_all_branches_hashable() {
        let db = db();
        // Both branches hash → union split.
        let all_hash =
            RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(eq("b", "d")));
        let split = split_or_join(&all_hash, &db).unwrap();
        assert!(matches!(split, RaExpr::Union { .. }), "{split}");
        let a = eval(&all_hash, &db, NullSemantics::Sql).unwrap().sorted().distinct();
        let b = eval(&split, &db, NullSemantics::Sql).unwrap().sorted().distinct();
        assert_eq!(a.tuples(), b.tuples());

        // A keyless branch would rescan both inputs as a nested loop: keep.
        let mixed =
            RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(is_null("d")));
        assert_eq!(split_or_join(&mixed, &db).unwrap(), mixed);
    }

    #[test]
    fn splitting_is_idempotent() {
        let db = db();
        let q =
            RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "c").or(is_null("c")));
        let once = split_or_antijoin(&q, &db).unwrap();
        assert_ne!(once, q);
        assert_eq!(split_or_antijoin(&once, &db).unwrap(), once);
        let j = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(eq("b", "d")));
        let once = split_or_join(&j, &db).unwrap();
        assert_ne!(once, j);
        assert_eq!(split_or_join(&once, &db).unwrap(), once);
    }
}
