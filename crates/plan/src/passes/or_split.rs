//! OR-splitting (paper, Section 7) — cost-guarded.
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
//! supposed to remove. The pipeline passes therefore split only when the
//! unsplit condition is unhashable and the split branches actually hash —
//! every branch for a join (each union branch rescans both inputs), all but
//! at most one for an anti-join chain (hashable branches run first and
//! shrink the left side before the lone nested-loop step). The raw,
//! unguarded rewrites remain available as [`split_or_antijoin`] /
//! [`split_or_join`].

use crate::equi::split_equi;
use crate::pass::{Pass, PassContext, PlanOptions};
use crate::{PlanError, Result};
use certus_algebra::condition::Condition;
use certus_algebra::expr::RaExpr;
use certus_algebra::schema_infer::{output_schema, Catalog};
use std::convert::Infallible;

/// OR-splitting of anti-join conditions (guarded by hashability).
pub struct SplitOrAntiJoinPass;

impl Pass for SplitOrAntiJoinPass {
    fn name(&self) -> &'static str {
        "split-or-antijoin"
    }

    fn enabled(&self, options: &PlanOptions) -> bool {
        options.split_or
    }

    fn run(&self, expr: &RaExpr, ctx: &PassContext<'_>) -> Result<RaExpr> {
        split_or_antijoin_guarded(expr, ctx.catalog, ctx.options.max_split)
    }
}

/// OR-splitting of theta-join conditions into unions (guarded by
/// hashability).
pub struct SplitOrJoinPass;

impl Pass for SplitOrJoinPass {
    fn name(&self) -> &'static str {
        "split-or-join"
    }

    fn enabled(&self, options: &PlanOptions) -> bool {
        options.split_or_joins
    }

    fn run(&self, expr: &RaExpr, ctx: &PassContext<'_>) -> Result<RaExpr> {
        split_or_join_guarded(expr, ctx.catalog, ctx.options.max_split)
    }
}

/// The disjuncts of a condition, when splitting stands a chance of paying
/// off: the unsplit condition extracts no hash keys, the disjunct count is
/// within bounds, and at least one disjunct does extract keys. Returns the
/// disjuncts reordered hashable-first, plus the number of keyless ones.
fn splittable_disjuncts(
    condition: &Condition,
    left: &RaExpr,
    right: &RaExpr,
    catalog: &dyn Catalog,
    max_split: usize,
) -> Result<Option<(Vec<Condition>, usize)>> {
    let disjuncts = condition.to_dnf();
    if disjuncts.len() < 2 || disjuncts.len() > max_split {
        return Ok(None);
    }
    let l_schema = output_schema(left, catalog).map_err(PlanError::Algebra)?;
    let r_schema = output_schema(right, catalog).map_err(PlanError::Algebra)?;
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

/// Guarded OR-splitting of anti-joins: split into a chain only when the
/// unsplit condition is unhashable and at most one branch stays keyless
/// (hashable branches run first, shrinking the left side).
pub fn split_or_antijoin_guarded(
    expr: &RaExpr,
    catalog: &dyn Catalog,
    max_split: usize,
) -> Result<RaExpr> {
    match expr {
        RaExpr::AntiJoin { left, right, condition } => {
            let left = split_or_antijoin_guarded(left, catalog, max_split)?;
            let right = split_or_antijoin_guarded(right, catalog, max_split)?;
            match splittable_disjuncts(condition, &left, &right, catalog, max_split)? {
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
        other => other.map_children(&mut |c| split_or_antijoin_guarded(c, catalog, max_split)),
    }
}

/// Guarded OR-splitting of joins into unions: split only when the unsplit
/// condition is unhashable and **every** branch hashes (each union branch
/// rescans both inputs, so a single keyless branch already costs as much as
/// not splitting at all).
pub fn split_or_join_guarded(
    expr: &RaExpr,
    catalog: &dyn Catalog,
    max_split: usize,
) -> Result<RaExpr> {
    match expr {
        RaExpr::Join { left, right, condition } => {
            let left = split_or_join_guarded(left, catalog, max_split)?;
            let right = split_or_join_guarded(right, catalog, max_split)?;
            match splittable_disjuncts(condition, &left, &right, catalog, max_split)? {
                Some((disjuncts, 0)) => {
                    let mut iter = disjuncts.into_iter();
                    let first = left.clone().join(right.clone(), iter.next().expect("non-empty"));
                    Ok(iter.fold(first, |acc, d| acc.union(left.clone().join(right.clone(), d))))
                }
                _ => Ok(left.join(right, condition.clone())),
            }
        }
        other => other.map_children(&mut |c| split_or_join_guarded(c, catalog, max_split)),
    }
}

/// OR-splitting of anti-joins: `l ▷_{φ1 ∨ … ∨ φk} r` is rewritten into
/// `(((l ▷_{φ1} r) ▷_{φ2} r) … ) ▷_{φk} r`, which is equivalent (a tuple
/// survives iff it has no match under any disjunct) and lets the physical
/// planner use a hash anti-join for every disjunct that is a conjunction of
/// equalities plus residual predicates.
pub fn split_or_antijoin(expr: &RaExpr, max_split: usize) -> RaExpr {
    match expr {
        RaExpr::AntiJoin { left, right, condition } => {
            let left = split_or_antijoin(left, max_split);
            let right = split_or_antijoin(right, max_split);
            let disjuncts = condition.to_dnf();
            if disjuncts.len() > 1 && disjuncts.len() <= max_split {
                let mut out = left;
                for d in disjuncts {
                    out = out.anti_join(right.clone(), d);
                }
                out
            } else {
                left.anti_join(right, condition.clone())
            }
        }
        other => other
            .map_children(&mut |c| Ok::<RaExpr, Infallible>(split_or_antijoin(c, max_split)))
            .expect("infallible"),
    }
}

/// OR-splitting for theta-joins: `l ⋈_{φ1 ∨ … ∨ φk} r` is rewritten into the
/// union `(l ⋈_{φ1} r) ∪ … ∪ (l ⋈_{φk} r)`, which is equivalent under set
/// semantics. This is the union/view form the paper uses for Q⁺4 (its
/// `part_view` / `supp_view` are exactly such unions).
pub fn split_or_join(expr: &RaExpr, max_split: usize) -> RaExpr {
    match expr {
        RaExpr::Join { left, right, condition } => {
            let left = split_or_join(left, max_split);
            let right = split_or_join(right, max_split);
            let disjuncts = condition.to_dnf();
            if disjuncts.len() > 1 && disjuncts.len() <= max_split {
                let mut iter = disjuncts.into_iter();
                let first = left.clone().join(right.clone(), iter.next().expect("non-empty"));
                iter.fold(first, |acc, d| acc.union(left.clone().join(right.clone(), d)))
            } else {
                left.join(right, condition.clone())
            }
        }
        other => other
            .map_children(&mut |c| Ok::<RaExpr, Infallible>(split_or_join(c, max_split)))
            .expect("infallible"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use certus_algebra::builder::{eq, is_null, neq};
    use certus_algebra::eval::eval;
    use certus_algebra::NullSemantics;
    use certus_data::builder::rel;
    use certus_data::null::NullId;
    use certus_data::{Database, Value};

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
    fn antijoin_or_splits_into_a_chain() {
        let db = db();
        let cond = eq("a", "c").or(is_null("c"));
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), cond);
        let split = split_or_antijoin(&q, 16);
        let mut count = 0;
        let mut cur = &split;
        while let RaExpr::AntiJoin { left, .. } = cur {
            count += 1;
            cur = left;
        }
        assert_eq!(count, 2);
        let a = eval(&q, &db, NullSemantics::Sql).unwrap().sorted();
        let b = eval(&split, &db, NullSemantics::Sql).unwrap().sorted();
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn join_or_splits_into_a_union() {
        let db = db();
        let cond = eq("a", "c").or(is_null("d").and(neq("b", "d")));
        let q = RaExpr::relation("r").join(RaExpr::relation("s"), cond);
        let split = split_or_join(&q, 16);
        assert!(matches!(split, RaExpr::Union { .. }), "{split}");
        let a = eval(&q, &db, NullSemantics::Sql).unwrap().sorted().distinct();
        let b = eval(&split, &db, NullSemantics::Sql).unwrap().sorted().distinct();
        assert_eq!(a.tuples(), b.tuples());
    }

    #[test]
    fn max_split_bounds_the_expansion() {
        let cond = is_null("c").or(is_null("d")).or(neq("a", "c"));
        let q = RaExpr::relation("r").anti_join(RaExpr::relation("s"), cond.clone());
        let kept = split_or_antijoin(&q, 2);
        assert!(matches!(kept, RaExpr::AntiJoin { ref condition, .. } if *condition == cond));
        let j = RaExpr::relation("r").join(RaExpr::relation("s"), cond.clone());
        let kept = split_or_join(&j, 2);
        assert!(matches!(kept, RaExpr::Join { ref condition, .. } if *condition == cond));
    }

    #[test]
    fn guarded_antijoin_split_requires_hashable_branches() {
        let db = db();
        // eq ∨ isnull: unsplit keyless, one keyless branch → split, hashable
        // branch first.
        let q =
            RaExpr::relation("r").anti_join(RaExpr::relation("s"), is_null("c").or(eq("a", "c")));
        let split = split_or_antijoin_guarded(&q, &db, 16).unwrap();
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
        assert_eq!(split_or_antijoin_guarded(&q, &db, 16).unwrap(), q);

        // Already hashable with residual: no split either.
        let q = RaExpr::relation("r")
            .anti_join(RaExpr::relation("s"), eq("a", "c").and(neq("b", "d").or(is_null("d"))));
        assert_eq!(split_or_antijoin_guarded(&q, &db, 16).unwrap(), q);
    }

    #[test]
    fn guarded_join_split_requires_all_branches_hashable() {
        let db = db();
        // Both branches hash → union split.
        let all_hash =
            RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(eq("b", "d")));
        let split = split_or_join_guarded(&all_hash, &db, 16).unwrap();
        assert!(matches!(split, RaExpr::Union { .. }), "{split}");
        let a = eval(&all_hash, &db, NullSemantics::Sql).unwrap().sorted().distinct();
        let b = eval(&split, &db, NullSemantics::Sql).unwrap().sorted().distinct();
        assert_eq!(a.tuples(), b.tuples());

        // A keyless branch would rescan both inputs as a nested loop: keep.
        let mixed =
            RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(is_null("d")));
        assert_eq!(split_or_join_guarded(&mixed, &db, 16).unwrap(), mixed);
    }

    #[test]
    fn splitting_is_idempotent() {
        let q =
            RaExpr::relation("r").anti_join(RaExpr::relation("s"), eq("a", "c").or(is_null("c")));
        let once = split_or_antijoin(&q, 16);
        assert_eq!(split_or_antijoin(&once, 16), once);
        let j = RaExpr::relation("r").join(RaExpr::relation("s"), eq("a", "c").or(is_null("c")));
        let once = split_or_join(&j, 16);
        assert_eq!(split_or_join(&once, 16), once);
    }
}
